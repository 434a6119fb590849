package trace_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/trace"
)

func TestFiltersSplitStreams(t *testing.T) {
	var app, kern trace.Counter
	tee := trace.Tee{trace.AppOnly(&app), trace.KernelOnly(&kern)}
	tee.Fetch(trace.FetchRun{Addr: 0, Words: 5})
	tee.Fetch(trace.FetchRun{Addr: 100, Words: 3, Kernel: true})
	tee.Fetch(trace.FetchRun{Addr: 200, Words: 2})
	if app.Instructions != 7 || kern.Instructions != 3 {
		t.Fatalf("app=%d kern=%d", app.Instructions, kern.Instructions)
	}
}

func TestCounterSplitsAppKernel(t *testing.T) {
	var c trace.Counter
	c.Fetch(trace.FetchRun{Words: 4})
	c.Fetch(trace.FetchRun{Words: 6, Kernel: true})
	if c.AppInstrs != 4 || c.KernelInstrs != 6 || c.Instructions != 10 || c.Runs != 2 {
		t.Fatalf("%+v", c)
	}
}

func TestSeqLenContiguity(t *testing.T) {
	s := trace.NewSeqLen()
	// Two contiguous runs (5 + 3 words) then a jump, then 4 words.
	s.Fetch(trace.FetchRun{Addr: 0, Words: 5})
	s.Fetch(trace.FetchRun{Addr: 20, Words: 3})
	s.Fetch(trace.FetchRun{Addr: 1000, Words: 4})
	s.Flush()
	if s.Hist.N != 2 {
		t.Fatalf("sequences = %d", s.Hist.N)
	}
	if s.Hist.Counts[8-s.Hist.Min] != 1 || s.Hist.Counts[4-s.Hist.Min] != 1 {
		t.Fatalf("sequence buckets wrong: %v", s.Hist.Counts)
	}
	if got := s.Hist.Mean(); got != 6 {
		t.Fatalf("mean = %f", got)
	}
}

func TestSeqLenPerCPU(t *testing.T) {
	s := trace.NewSeqLen()
	// Interleaved CPUs must not break each other's sequences.
	s.Fetch(trace.FetchRun{Addr: 0, Words: 2, CPU: 0})
	s.Fetch(trace.FetchRun{Addr: 500, Words: 3, CPU: 1})
	s.Fetch(trace.FetchRun{Addr: 8, Words: 2, CPU: 0})
	s.Fetch(trace.FetchRun{Addr: 512, Words: 3, CPU: 1})
	s.Flush()
	if s.Hist.N != 2 {
		t.Fatalf("sequences = %d", s.Hist.N)
	}
	if s.Hist.Counts[4-s.Hist.Min] != 1 || s.Hist.Counts[6-s.Hist.Min] != 1 {
		t.Fatalf("per-cpu sequences wrong: %v", s.Hist.Counts)
	}
}

func TestFootprint(t *testing.T) {
	f := trace.NewFootprint(128)
	f.Fetch(trace.FetchRun{Addr: 0, Words: 8})     // line 0
	f.Fetch(trace.FetchRun{Addr: 120, Words: 4})   // crosses into line 1
	f.Fetch(trace.FetchRun{Addr: 12800, Words: 1}) // line 100
	if f.Lines() != 3 {
		t.Fatalf("lines = %d", f.Lines())
	}
	if f.Bytes() != 3*128 {
		t.Fatalf("bytes = %d", f.Bytes())
	}
	if f.Pages() != 2 {
		t.Fatalf("pages = %d", f.Pages())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return false
		}
		var fetches []trace.FetchRun
		var datas []trace.DataRef
		for i := 0; i < 200; i++ {
			if r.Intn(4) == 0 {
				d := trace.DataRef{
					Addr: uint64(r.Intn(1 << 20)), Bytes: int32(1 + r.Intn(64)),
					CPU: uint8(r.Intn(4)), PID: uint16(r.Intn(32)),
					Write: r.Intn(2) == 0, Kernel: r.Intn(5) == 0,
				}
				datas = append(datas, d)
				w.Data(d)
			} else {
				fr := trace.FetchRun{
					Addr: uint64(r.Intn(1<<20)) &^ 3, Words: int32(1 + r.Intn(30)),
					CPU: uint8(r.Intn(4)), PID: uint16(r.Intn(32)), Kernel: r.Intn(5) == 0,
				}
				fetches = append(fetches, fr)
				w.Fetch(fr)
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := trace.NewReader(&buf)
		if err != nil {
			return false
		}
		var gotF []trace.FetchRun
		var gotD []trace.DataRef
		err = rd.Replay(sinkFunc(func(fr trace.FetchRun) { gotF = append(gotF, fr) }),
			dataFunc(func(d trace.DataRef) { gotD = append(gotD, d) }))
		if err != nil {
			t.Logf("seed %d: replay: %v", seed, err)
			return false
		}
		if len(gotF) != len(fetches) || len(gotD) != len(datas) {
			t.Logf("seed %d: counts %d/%d %d/%d", seed, len(gotF), len(fetches), len(gotD), len(datas))
			return false
		}
		for i := range fetches {
			if gotF[i] != fetches[i] {
				t.Logf("seed %d: fetch %d: %+v != %+v", seed, i, gotF[i], fetches[i])
				return false
			}
		}
		for i := range datas {
			if gotD[i] != datas[i] {
				t.Logf("seed %d: data %d mismatch", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

type sinkFunc func(trace.FetchRun)

func (f sinkFunc) Fetch(r trace.FetchRun) { f(r) }

type dataFunc func(trace.DataRef)

func (f dataFunc) Data(r trace.DataRef) { f(r) }

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := trace.NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("expected magic error")
	}
}
