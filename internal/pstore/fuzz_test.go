package pstore

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"codelayout/internal/db"
	"codelayout/internal/profile"
)

// encodeFile returns the bytes of the store file for e.
func encodeFile(tb testing.TB, e *Entry) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeEntry(w, e); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readBytes is ReadEntry over a file holding raw.
func readBytes(tb testing.TB, raw []byte) (*Entry, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "entry.pstore")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return ReadEntry(path)
}

// sampleEntry returns a complete entry: every profile and tally present.
func sampleEntry() *Entry {
	pf := func(name string, n uint64) *profile.Profile {
		p := &profile.Profile{Name: name, BlockCount: []uint64{n, 2 * n, 0, 3 * n}, EdgeCount: map[uint64]uint64{}}
		p.AddEdge(0, 1, n)
		p.AddEdge(1, 3, 2*n)
		return p
	}
	return &Entry{
		Spec:      "tpcb/s4/c2/seed1/w20/x200",
		Image:     "img-abc123",
		CreatedAt: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		KindFreq:  map[string]float64{"deposit": 0.7, "transfer": 0.3},
		Fields:    map[string]map[string]db.FieldAccess{"account": {"balance": {Reads: 5, Writes: 3}}},
		App:       pf("app", 5),
		Kern:      pf("kern", 12),
		DCPI:      pf("dcpi", 18),
	}
}

// rewire returns the store file raw with its wire form edited: a file no
// Put would write.
func rewire(tb testing.TB, raw []byte, edit func(*wireEntry)) []byte {
	tb.Helper()
	var we wireEntry
	if err := gob.NewDecoder(bytes.NewReader(raw[len(magic):])).Decode(&we); err != nil {
		tb.Fatal(err)
	}
	edit(&we)
	out := bytes.NewBufferString(magic)
	if err := gob.NewEncoder(out).Encode(&we); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// dropDCPI strips the sampling profile and its fingerprint from a wire entry.
func dropDCPI(we *wireEntry) { we.DCPI, we.DCPIFP = nil, 0 }

// TestEntryNeedsDCPI: every training run samples, so an entry without its
// DCPI profile is incomplete. Put refuses one, and a store file without one
// reads as ErrCorrupt, so no reader is served a run whose "dcpi-all" layout
// cannot be built.
func TestEntryNeedsDCPI(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntry()
	e.DCPI = nil
	if err := s.Put(e); err == nil {
		t.Error("Put stored an entry without its DCPI profile")
	}
	raw := rewire(t, encodeFile(t, sampleEntry()), dropDCPI)
	if got, err := readBytes(t, raw); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadEntry of a file without DCPI = %+v, %v; want an error wrapping ErrCorrupt", got, err)
	}
}

// FuzzReadEntry: a store file of any bytes reads back as an error wrapping
// ErrCorrupt or as an entry that re-encodes and decodes to an equal entry —
// never a panic.
func FuzzReadEntry(f *testing.F) {
	valid := encodeFile(f, sampleEntry())
	f.Add(valid)
	for _, n := range []int{0, len(magic) - 1, len(magic), len(magic) + 9, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(append([]byte("PSTOREv0\n"), valid[len(magic):]...))
	// The same entry with its application profile's fingerprint flipped, and
	// without its DCPI profile.
	f.Add(rewire(f, valid, func(we *wireEntry) { we.AppFP ^= 1 }))
	f.Add(rewire(f, valid, dropDCPI))

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := readBytes(t, raw)
		if err != nil {
			if e != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadEntry = %v, %v; want nil and an error wrapping ErrCorrupt", e, err)
			}
			return
		}
		again, err := readBytes(t, encodeFile(t, e))
		if err != nil {
			t.Fatalf("an entry ReadEntry accepted does not survive its own encoding: %v", err)
		}
		if !sameEntry(t, e, again) {
			t.Fatalf("entry changed across re-encoding:\n got %+v\nwant %+v", again, e)
		}
	})
}

// sameEntry compares two entries field by field: times by instant, kind
// frequencies by bits (a NaN equals itself) and profiles by their encoding.
func sameEntry(t *testing.T, a, b *Entry) bool {
	if a.Spec != b.Spec || a.Image != b.Image || !a.CreatedAt.Equal(b.CreatedAt) ||
		len(a.KindFreq) != len(b.KindFreq) || !reflect.DeepEqual(a.Fields, b.Fields) {
		return false
	}
	for k, v := range a.KindFreq {
		if w, ok := b.KindFreq[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	for _, p := range [][2]*profile.Profile{{a.App, b.App}, {a.Kern, b.Kern}, {a.DCPI, b.DCPI}} {
		x, err := p[0].GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := p[1].GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}
