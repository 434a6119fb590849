package expt_test

import (
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
)

// fusionOptions is the pinned configuration of the fusion regression: quick
// scale, fixed seeds, and a non-zero fetch-stall penalty so instruction-cache
// locality shows up on the latency clock at all.
func fusionOptions(t *testing.T) expt.Options {
	t.Helper()
	o := tinyOptions(tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 120}))
	o.FetchStallPenaltyInstr = 40
	return o
}

// TestFusionBeatsIPChainP50 is the headline pinned regression of the txfuse
// pass: at fixed seed, the per-transaction-kind fused layout must land a
// strictly lower median latency than its structural sibling ipchain for the
// TPC-B and order-entry workloads, while the fused image stays within the
// application text address map and the shared base image is never mutated.
func TestFusionBeatsIPChainP50(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := fusionOptions(t)
	oe := tinyOrdere()
	src, err := expt.NewProfileSource(o, oe)
	if err != nil {
		t.Fatal(err)
	}
	first, err := expt.NewSessionFrom(src, o)
	if err != nil {
		t.Fatal(err)
	}
	shared := first.AppImage()
	baseProcs := len(shared.Prog.Procs)
	baseBlocks := shared.Prog.NumBlocks()

	for _, wl := range []string{"tpcb", "ordere"} {
		eo := o
		if wl == "ordere" {
			eo.Workload = oe
		}
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Reading(expt.NoSinks) // latency and stalls are the machine's own
		fuse, err := s.Measure("fusion", eo.CPUs)
		if err != nil {
			t.Fatalf("%s: measure fusion: %v", wl, err)
		}
		ipc, err := s.Measure("ipchain", eo.CPUs)
		if err != nil {
			t.Fatalf("%s: measure ipchain: %v", wl, err)
		}
		f50, i50 := fuse.Res.Latency.P50, ipc.Res.Latency.P50
		t.Logf("%s: p50 fusion=%d ipchain=%d (p99 %d vs %d)", wl,
			f50, i50, fuse.Res.Latency.P99, ipc.Res.Latency.P99)
		if f50 >= i50 {
			t.Errorf("%s: fusion p50 = %d, want strictly below ipchain p50 = %d", wl, f50, i50)
		}
		// Each session self-trains, so its fused layout covers the kinds
		// that actually executed in its training run: one for TPC-B's
		// single-shard mix, two (neworder, payment) for order entry.
		rep := s.Report("fusion")
		if rep == nil {
			t.Fatalf("%s: no fusion report", wl)
		}
		want := 1
		if wl == "ordere" {
			want = 2
		}
		if rep.FusedKinds < want {
			t.Errorf("%s: FusedKinds = %d, want >= %d", wl, rep.FusedKinds, want)
		}
		if fuse.Res.FetchStallInstr == 0 {
			t.Errorf("%s: fusion run charged no fetch stalls; the stall model is not wired", wl)
		}
	}

	// The fused layout stayed within the address map and ran over its own
	// specialized image.
	l, err := first.Layout("fusion")
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalBytes() > isa.AppTextLimitBytes {
		t.Errorf("fused layout = %d bytes, past the %d-byte app text map", l.TotalBytes(), isa.AppTextLimitBytes)
	}
	if first.AppImageFor("fusion") == shared {
		t.Error("fusion measured over the shared image, not a specialized one")
	}

	// With the pass off, nothing changed: the shared image (which the
	// FastPath predictor models live in) has exactly its original shape.
	if got := len(shared.Prog.Procs); got != baseProcs {
		t.Errorf("shared image grew procs %d -> %d; fusion must specialize, not mutate", baseProcs, got)
	}
	if got := shared.Prog.NumBlocks(); got != baseBlocks {
		t.Errorf("shared image grew blocks %d -> %d; fusion must specialize, not mutate", baseBlocks, got)
	}
}

// TestFusionInvariantsClean replays the fused configuration on a directly
// constructed machine and audits the engine invariants: cloning hot engine
// procedures must not change what the transactions do.
func TestFusionInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := fusionOptions(t)
	o.Shards = 2
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	appL, err := s.Layout("fusion")
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := s.KernLayout("kbase")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{
		CPUs: o.CPUs, ProcsPerCPU: o.ProcsPerCPU, Seed: o.Seed, Shards: o.Shards,
		FetchStallPenaltyInstr: o.FetchStallPenaltyInstr,
		WarmupTxns:             o.WarmupTxns, Transactions: o.Transactions,
		Workload: o.Workload,
		AppImage: s.AppImageFor("fusion"), AppLayout: appL,
		KernImage: s.KernelImage(), KernLayout: kernL,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed under the fused layout")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated under the fused layout: %v", err)
	}
}
