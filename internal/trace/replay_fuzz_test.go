package trace_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"codelayout/internal/trace"
)

// header is what a Writer writes before its first record.
func header(t testing.TB) []byte {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// record is one hand-made record on CPU 0 with no flags: a fetch run's
// address delta and words, or a data reference's address and bytes.
func record(kind byte, addr, count uint64) []byte {
	b := []byte{kind, 0, 0}
	if kind == 1 {
		b = binary.AppendVarint(b, int64(addr))
	} else {
		b = binary.AppendUvarint(b, addr)
	}
	return binary.AppendUvarint(b, count)
}

// impossible are records whose count a FetchRun's Words or a DataRef's Bytes
// cannot hold, by the record kind the error must name.
var impossible = []struct {
	kind string
	rec  []byte
}{
	{"fetch", record(1, 4096, 0)},
	{"fetch", record(1, 4096, 1<<31)},
	{"fetch", record(1, 4096, 1<<32+3)},
	{"data", record(2, 4096, 0)},
}

// replayed keeps the runs and references it is fed, in order.
type replayed struct{ got []any }

func (r *replayed) Fetch(f trace.FetchRun) { r.got = append(r.got, f) }
func (r *replayed) Data(d trace.DataRef)   { r.got = append(r.got, d) }

// TestReplayRejectsImpossibleCounts: a fetch record of 0, 2^31 or 2^32+3
// words, or a data record of 0 bytes, is an error naming the record kind, and
// Replay delivers nothing for it — not a run of 0, negative or truncated words.
func TestReplayRejectsImpossibleCounts(t *testing.T) {
	for _, c := range impossible {
		good := record(1, 0, 2)
		rd, err := trace.NewReader(bytes.NewReader(slices.Concat(header(t), good, c.rec)))
		if err != nil {
			t.Fatal(err)
		}
		var rec replayed
		err = rd.Replay(&rec, &rec)
		if err == nil || !strings.Contains(err.Error(), c.kind+" record") {
			t.Errorf("% x: err = %v, want a %s record error", c.rec, err, c.kind)
		}
		if len(rec.got) != 1 {
			t.Errorf("% x: delivered %v, want only the good run", c.rec, rec.got)
		}
	}
}

// writeEvents hands w the runs and references data describes, 14 bytes an
// event: kind and flag, CPU, an 8-byte address and a 4-byte count, each kept
// inside what the types promise. It returns them in order.
func writeEvents(w *trace.Writer, data []byte) []any {
	var evs []any
	for ; len(data) >= 14; data = data[14:] {
		cpu := data[1] % trace.MaxCPUs
		addr := binary.LittleEndian.Uint64(data[2:])
		n := int32(binary.LittleEndian.Uint32(data[10:])%math.MaxInt32) + 1
		flag := data[0]&2 != 0
		if data[0]&1 == 0 {
			r := trace.FetchRun{Addr: addr, Words: n, CPU: cpu, Kernel: flag}
			w.Fetch(r)
			evs = append(evs, r)
		} else {
			d := trace.DataRef{Addr: addr, Bytes: n, CPU: cpu, Write: flag}
			w.Data(d)
			evs = append(evs, d)
		}
	}
	return evs
}

// FuzzTraceReplay: a trace is bytes from a file. Whatever follows the magic,
// Replay returns nil or an error, never panics, and delivers only what the
// types promise: runs of at least one word, references of at least one byte,
// on a CPU below MaxCPUs. And whatever runs and references a Writer is
// handed — the same bytes, read as events — its stream replays them equal.
func FuzzTraceReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(slices.Concat(record(1, 64, 3), record(2, 1<<40, 8), record(1, 1<<63, math.MaxInt32)))
	for _, c := range impossible {
		f.Add(c.rec)
	}
	f.Add([]byte{1, 64, 0, 0, 1})         // CPU out of range
	f.Add([]byte{3, 0, 0, 0, 1})          // unknown kind
	f.Add([]byte{1, 0, 1, 0x80, 0x80, 1}) // truncated mid-record
	hdr := header(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := trace.NewReader(bytes.NewReader(slices.Concat(hdr, data)))
		if err != nil {
			t.Fatal(err)
		}
		var rec replayed
		_ = rd.Replay(&rec, &rec)
		for _, e := range rec.got {
			switch e := e.(type) {
			case trace.FetchRun:
				if e.Words < 1 || e.CPU >= trace.MaxCPUs {
					t.Fatalf("delivered %+v", e)
				}
			case trace.DataRef:
				if e.Bytes < 1 || e.CPU >= trace.MaxCPUs {
					t.Fatalf("delivered %+v", e)
				}
			}
		}

		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := writeEvents(w, data)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if rd, err = trace.NewReader(&buf); err != nil {
			t.Fatal(err)
		}
		var again replayed
		if err := rd.Replay(&again, &again); err != nil {
			t.Fatalf("a written stream does not replay: %v", err)
		}
		if !reflect.DeepEqual(again.got, want) {
			t.Fatalf("replayed %v, wrote %v", again.got, want)
		}
	})
}
