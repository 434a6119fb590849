package mem_test

import (
	"reflect"
	"testing"

	"codelayout/internal/mem"
	"codelayout/internal/trace"
)

func dref(cpu uint8, addr uint64, bytes int32, write bool) trace.DataRef {
	return trace.DataRef{Addr: addr, Bytes: bytes, CPU: cpu, Write: write}
}

func smallConfig(cpus int) mem.Config {
	return mem.Config{
		CPUs:         cpus,
		L1DSizeBytes: 1024, L1DLineBytes: 64, L1DAssoc: 2,
		L2SizeBytes: 8192, L2LineBytes: 64, L2Assoc: 2,
	}
}

func TestL1DHitMiss(t *testing.T) {
	s := mem.NewSystem(smallConfig(1))
	s.Data(dref(0, 0x1000, 8, false))
	s.Data(dref(0, 0x1000, 8, false))
	if s.Stats.L1DMisses != 1 || s.Stats.L1DAccesses != 2 {
		t.Fatalf("l1d: misses=%d accesses=%d", s.Stats.L1DMisses, s.Stats.L1DAccesses)
	}
	if s.Stats.L2Accesses[mem.KindData] != 1 {
		t.Fatalf("l2 data accesses = %d", s.Stats.L2Accesses[mem.KindData])
	}
}

func TestInstrMissesFlowToL2(t *testing.T) {
	s := mem.NewSystem(smallConfig(1))
	s.FetchMiss(0x2000, 0)
	s.FetchMiss(0x2000, 0)
	if s.Stats.L2Accesses[mem.KindInstr] != 2 || s.Stats.L2Misses[mem.KindInstr] != 1 {
		t.Fatalf("l2 instr: acc=%d miss=%d",
			s.Stats.L2Accesses[mem.KindInstr], s.Stats.L2Misses[mem.KindInstr])
	}
}

func TestCrossKindEviction(t *testing.T) {
	// Fill one L2 set with data lines, then push an instruction line into
	// the same set and check the cross-kind eviction counter.
	cfg := smallConfig(1)
	s := mem.NewSystem(cfg)
	// 8KB 2-way 64B lines -> 64 sets; same set every 64*64 = 4096 bytes.
	s.Data(dref(0, 0, 4, false))
	s.Data(dref(0, 4096, 4, false))
	s.FetchMiss(8192, 0) // 3rd line in set 0, evicts a data line
	if s.Stats.L2EvictCross[mem.KindInstr][mem.KindData] != 1 {
		t.Fatalf("cross evictions = %v", s.Stats.L2EvictCross)
	}
}

func TestSharingInvalidation(t *testing.T) {
	s := mem.NewSystem(smallConfig(2))
	addr := uint64(0x4000)
	// CPU 0 reads and caches the line.
	s.Data(dref(0, addr, 8, false))
	if s.Stats.L1DMisses != 1 {
		t.Fatalf("misses = %d", s.Stats.L1DMisses)
	}
	s.Data(dref(0, addr, 8, false)) // warm hit
	if s.Stats.L1DMisses != 1 {
		t.Fatal("expected hit")
	}
	// CPU 1 writes the line: invalidates CPU 0's copies.
	s.Data(dref(1, addr, 8, true))
	if s.Stats.Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
	// CPU 0 re-reads: must miss again and count as a communication read.
	pre := s.Stats.CommRead
	s.Data(dref(0, addr, 8, false))
	if s.Stats.CommRead != pre+1 {
		t.Fatalf("comm reads = %d, want %d", s.Stats.CommRead, pre+1)
	}
}

func TestWriteBySameCPUDoesNotInvalidate(t *testing.T) {
	s := mem.NewSystem(smallConfig(2))
	addr := uint64(0x4000)
	s.Data(dref(0, addr, 8, true))
	s.Data(dref(0, addr, 8, true))
	if s.Stats.CommWrite != 0 || s.Stats.Invalidations != 0 {
		t.Fatalf("self writes caused coherence traffic: %+v", s.Stats)
	}
}

// TestResetForgetsTheRun: after Reset the system equals a new one — caches
// empty, Stats zero, the sharing directory empty — so a write to a line
// another CPU wrote before the reset is a first write, not a CommWrite, and a
// read of a line cached before it misses.
func TestResetForgetsTheRun(t *testing.T) {
	s := mem.NewSystem(smallConfig(2))
	s.Data(dref(0, 0x4000, 8, true))
	s.Data(dref(1, 0x4000, 8, true))
	s.Data(dref(1, 0x8000, 8, false))
	s.FetchMiss(0x2000, 0)
	if s.Stats.CommWrite != 1 {
		t.Fatalf("before the reset: %d comm writes, want 1", s.Stats.CommWrite)
	}
	s.Reset()
	if s.Stats != (mem.Stats{}) {
		t.Fatalf("Stats after Reset: %+v", s.Stats)
	}
	if !reflect.DeepEqual(s, mem.NewSystem(smallConfig(2))) {
		t.Fatal("a reset system differs from a new one")
	}
	s.Data(dref(0, 0x4000, 8, true))
	s.Data(dref(1, 0x8000, 8, false))
	if want := (mem.Stats{L1DAccesses: 2, L1DMisses: 2, L2Accesses: [2]uint64{0, 2}, L2Misses: [2]uint64{0, 2}}); s.Stats != want {
		t.Fatalf("after Reset: %+v, want %+v", s.Stats, want)
	}
}

func TestMoreCPUsMoreCommunication(t *testing.T) {
	// The same logically-shared write pattern must produce more
	// communication misses with more CPUs touching the data — this is the
	// effect that dilutes layout gains in the paper's 4-processor runs.
	commFor := func(cpus int) uint64 {
		s := mem.NewSystem(smallConfig(cpus))
		for i := 0; i < 100; i++ {
			cpu := uint8(i % cpus)
			s.Data(dref(cpu, 0x8000, 8, true))
			s.Data(dref(cpu, 0x8000, 8, false))
		}
		return s.Stats.CommRead + s.Stats.CommWrite
	}
	if one, four := commFor(1), commFor(4); one != 0 || four == 0 {
		t.Fatalf("comm: 1cpu=%d 4cpu=%d", one, four)
	}
}

// TestForeignCPUPanics: a reference from a CPU the system lacks panics,
// naming the CPU and the system's size, whether it is a data reference or an
// instruction miss, instead of landing in another CPU's caches.
func TestForeignCPUPanics(t *testing.T) {
	panicMsg := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	s := mem.NewSystem(smallConfig(2))
	s.Data(dref(1, 0x1000, 8, true))
	s.FetchMiss(0x2000, 1)
	const want = "mem: reference from cpu 2 in a 2-cpu system"
	for name, f := range map[string]func(){
		"Data":      func() { s.Data(dref(2, 0x1000, 8, false)) },
		"FetchMiss": func() { s.FetchMiss(0x2000, 2) },
	} {
		if got := panicMsg(f); got != want {
			t.Errorf("%s from cpu 2: panic %v, want %q", name, got, want)
		}
	}
	if got := panicMsg(func() { s.FetchMiss(0x2000, -1) }); got != "mem: reference from cpu -1 in a 2-cpu system" {
		t.Errorf("FetchMiss from cpu -1: panic %v", got)
	}
	if s.Stats.L1DAccesses != 1 || s.Stats.L2Accesses != [2]uint64{1, 1} {
		t.Errorf("a rejected reference was counted: %+v", s.Stats)
	}
}
