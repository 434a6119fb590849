package search_test

import (
	"strings"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/ordere"
	"codelayout/internal/search"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// tinyOptions mirrors the expt test helper: the smallest session that still
// runs every pipeline meaningfully.
func tinyOptions(wl workload.Workload) expt.Options {
	o := expt.QuickOptions()
	o.Transactions = 60
	o.WarmupTxns = 15
	o.Train.Txns = 150
	o.CPUs = 2
	o.ProcsPerCPU = 4
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	o.Workload = wl
	return o
}

func tinyTPCB() workload.Workload {
	return tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
}

func tinyOrdere() workload.Workload {
	return ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
}

func tinyYCSB() workload.Workload {
	return ycsb.NewScaled(ycsb.Scale{Records: 4_000})
}

// TestSearchDeterminism pins the engine's reproducibility contract: the same
// seed, population and generations produce a bit-identical winner spec and
// fitness trajectory across runs — including across different evaluation
// worker-pool sizes, because the rng is only consumed serially and fitness
// comes from memoized deterministic simulations.
func TestSearchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	run := func(workers int) *search.Result {
		res, err := search.Run(tinyOptions(tinyTPCB()), search.Config{
			Population:  5,
			Generations: 3,
			Seed:        11,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Winner.Spec != b.Winner.Spec || a.Winner.Fitness != b.Winner.Fitness {
		t.Fatalf("winners differ across worker pools:\n  1 worker:  %q %.6f\n  4 workers: %q %.6f",
			a.Winner.Spec, a.Winner.Fitness, b.Winner.Spec, b.Winner.Fitness)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		ga, gb := a.Trajectory[i], b.Trajectory[i]
		if ga.GenBest.Spec != gb.GenBest.Spec || ga.GenBest.Fitness != gb.GenBest.Fitness ||
			ga.Best.Spec != gb.Best.Spec || ga.Best.Fitness != gb.Best.Fitness {
			t.Fatalf("gen %d diverges across worker pools:\n  1 worker:  %q %.6f (best %q %.6f)\n  4 workers: %q %.6f (best %q %.6f)",
				ga.Gen, ga.GenBest.Spec, ga.GenBest.Fitness, ga.Best.Spec, ga.Best.Fitness,
				gb.GenBest.Spec, gb.GenBest.Fitness, gb.Best.Spec, gb.Best.Fitness)
		}
	}
	// Same engine, different seed: the breeding stream must actually change.
	c, err := search.Run(tinyOptions(tinyTPCB()), search.Config{
		Population: 5, Generations: 3, Seed: 12, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // winners may legitimately coincide; this run just proves a different seed completes
}

// TestSearchBeatsHandBuilt is the pinned acceptance test: at a fixed seed the
// evolved winner scores at least as well as the best hand-built combo on the
// training workload, the transfer table reports winner-vs-fusion deltas for
// all three workloads, and memo dedup keeps executed simulations strictly
// below the requested population x generations evaluations.
func TestSearchBeatsHandBuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := tinyOptions(tinyTPCB())
	cfg := search.Config{
		Population:  8,
		Generations: 4,
		Seed:        7,
		Objective:   search.ObjectiveInstrPerTxn,
		Workloads: []search.WorkloadWeight{
			{Workload: tinyTPCB(), Weight: 2},
			{Workload: tinyOrdere(), Weight: 1},
			{Workload: tinyYCSB(), Weight: 1},
		},
	}
	res, err := search.Run(o, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The winner never loses to a hand-built combo: the combos seed the
	// initial population and elitism preserves the best genome.
	for _, b := range res.Baselines {
		if res.Winner.Fitness > b.Fitness {
			t.Errorf("winner %q (%.4f) is worse than hand-built %q (%.4f)",
				res.Winner.Spec, res.Winner.Fitness, b.Spec, b.Fitness)
		}
	}
	if res.Winner.Fitness >= 1 {
		t.Errorf("winner %q fitness %.4f does not improve on base (1.0)", res.Winner.Spec, res.Winner.Fitness)
	}

	// Transfer: the table carries a winner row and a fusion delta for every
	// workload, training and transplanted alike.
	rendered := res.Table.String()
	for _, wl := range []string{"tpcb", "ordere", "ycsb"} {
		if !strings.Contains(rendered, wl) {
			t.Errorf("transfer table is missing workload %q:\n%s", wl, rendered)
		}
		for _, layout := range []string{"base", "ipchain", "fusion", "winner"} {
			if _, ok := winnerRow(res, wl, layout); !ok {
				t.Errorf("no %s objective recorded for workload %q", layout, wl)
			}
		}
	}
	if !strings.Contains(rendered, res.Winner.Spec) {
		t.Errorf("table notes do not carry the winner spec %q:\n%s", res.Winner.Spec, rendered)
	}

	// Dedup accounting: per evaluation session, executed simulations stay
	// strictly below the requested population x generations evaluations —
	// elitism and convergence guarantee repeats, the memo collapses them.
	if res.Requested != cfg.Population*len(res.Trajectory) {
		t.Errorf("requested = %d, want population x generations = %d",
			res.Requested, cfg.Population*len(res.Trajectory))
	}
	perSession := res.Executed / uint64(len(cfg.Workloads))
	if perSession >= uint64(res.Requested) {
		t.Errorf("memo dedup failed: %d simulations per workload for %d requested evaluations",
			perSession, res.Requested)
	}
	if res.Unique >= res.Requested {
		t.Errorf("population converged nowhere: %d unique specs for %d requested", res.Unique, res.Requested)
	}
	if res.Memo.Measure.Hits == 0 {
		t.Error("expected measurement memo hits during the search")
	}
	t.Logf("winner %q fitness %.4f; %d requested, %d unique, %d executed (%d/session)",
		res.Winner.Spec, res.Winner.Fitness, res.Requested, res.Unique, res.Executed, perSession)
	for _, g := range res.Trajectory {
		t.Logf("gen %d: best %.4f (%s)", g.Gen, g.Best.Fitness, g.Best.Spec)
	}
}

// winnerRow extracts the per-workload objective recorded for a layout.
func winnerRow(res *search.Result, wl, layout string) (float64, bool) {
	if layout == "winner" {
		v, ok := res.Winner.PerWorkload[wl]
		return v, ok
	}
	for _, b := range res.Baselines {
		if b.Spec == layout {
			v, ok := b.PerWorkload[wl]
			return v, ok
		}
	}
	return 0, false
}

// TestRawSpecMatchesNamedCombo pins the expt bridge the search relies on: a
// raw pipeline spec measured through Session.Measure produces the same
// machine results as its named-combo equivalent.
func TestRawSpecMatchesNamedCombo(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s, err := expt.NewSession(tinyOptions(tinyTPCB()))
	if err != nil {
		t.Fatal(err)
	}
	s = s.Reading(expt.NoSinks) // only Res is compared
	pairs := map[string]string{
		"ipchain": "chain,split:none,ipchain,porder:ph,materialize",
		"all":     "chain,split:fine,porder:ph,materialize",
	}
	for named, spec := range pairs {
		a, err := s.Measure(named, s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Measure(spec, s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Res != b.Res {
			t.Errorf("raw spec %q diverges from named combo %q:\n%+v\n%+v", spec, named, a.Res, b.Res)
		}
	}
}
