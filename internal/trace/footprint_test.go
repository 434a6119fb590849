package trace_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
)

// mapFootprint is the footprint as two Go maps, the reference the bitset
// version is checked against.
type mapFootprint struct {
	lineBytes    uint64
	lines, pages map[uint64]struct{}
}

func (f *mapFootprint) Fetch(r trace.FetchRun) {
	for ln := r.Addr / f.lineBytes; ln <= (r.End()-1)/f.lineBytes; ln++ {
		f.lines[ln] = struct{}{}
	}
	for pg := r.Addr / isa.PageBytes; pg <= (r.End()-1)/isa.PageBytes; pg++ {
		f.pages[pg] = struct{}{}
	}
}

// checkFootprint replays runs into a Footprint and the map reference and
// compares the three readings after every run.
func checkFootprint(t *testing.T, lineBytes int, runs []trace.FetchRun) {
	t.Helper()
	f := trace.NewFootprint(lineBytes)
	ref := &mapFootprint{uint64(lineBytes), map[uint64]struct{}{}, map[uint64]struct{}{}}
	for i, r := range runs {
		f.Fetch(r)
		ref.Fetch(r)
		if f.Lines() != len(ref.lines) || f.Pages() != len(ref.pages) || f.Bytes() != int64(len(ref.lines)*lineBytes) {
			t.Fatalf("%dB lines, run %d %+v: %d lines, %d pages, %d bytes; the maps hold %d lines, %d pages",
				lineBytes, i, r, f.Lines(), f.Pages(), f.Bytes(), len(ref.lines), len(ref.pages))
		}
	}
	if len(ref.lines) == len(runs) || len(ref.pages) < 2 {
		t.Errorf("%d lines and %d pages over %d runs: the stream does not revisit lines or leave its first page", len(ref.lines), len(ref.pages), len(runs))
	}
}

// TestFootprintMatchesMapsOnRandomRuns: short and page-crossing runs,
// scattered over application text, kernel text at the far end of the address
// space, and the lowest addresses.
func TestFootprintMatchesMapsOnRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bases := []uint64{0, isa.AppTextBase, isa.AppTextBase + 64<<20, isa.KernelTextBase}
	var runs []trace.FetchRun
	for len(runs) < 30_000 {
		r := trace.FetchRun{
			Addr:  bases[rng.Intn(len(bases))] + uint64(rng.Intn(1<<18))*isa.WordBytes,
			Words: int32(1 + rng.Intn(40)),
		}
		if rng.Intn(100) == 0 {
			r.Words = int32(1 + rng.Intn(3*isa.PageBytes/isa.WordBytes))
		}
		runs = append(runs, r)
	}
	for _, line := range []int{16, 128, 256} {
		checkFootprint(t, line, runs)
	}
}

// TestFootprintMatchesMapsOnMachineRuns: the combined stream of a real
// (tiny) TPC-B run.
func TestFootprintMatchesMapsOnMachineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := expt.QuickOptions()
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
	o.Transactions, o.WarmupTxns, o.Train.Txns = 30, 10, 100
	o.CPUs, o.ProcsPerCPU = 1, 6
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.MachineConfig("base", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	var runs recorder
	cfg.Sinks = []trace.Sink{&runs}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checkFootprint(t, 128, runs)
}

type recorder []trace.FetchRun

func (r *recorder) Fetch(run trace.FetchRun) { *r = append(*r, run) }
