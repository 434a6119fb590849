package search_test

import (
	"reflect"
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
// seed, population and generations produce a bit-identical Result — winner,
// baselines, hall of fame, trajectory, memo counters and rendered table —
// across runs, including across evaluation worker-pool sizes over the
// three-workload matrix, because the rng is only consumed serially, fitness
// comes from memoized deterministic simulations and every memo counts one
// hit or one miss per call whichever worker makes it. The memo counters are
// also pinned: they are the ones one measurement batch per workload
// produced, which the single batch per generation must keep.
func TestSearchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	run := func(workers int, seed int64) *search.Result {
		res, err := search.Run(tinyOptions(tinyTPCB()), search.Config{
			Population:  6,
			Generations: 4,
			Seed:        seed,
			Workers:     workers,
			Workloads: []search.WorkloadWeight{
				{Workload: tinyTPCB(), Weight: 2},
				{Workload: tinyOrdere(), Weight: 1},
				{Workload: tinyYCSB(), Weight: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1, 11)
	wantMemo := expt.MemoStats{
		Measure: expt.MemoCounters{Hits: 60, Misses: 48, Entries: 48},
		Layout:  expt.MemoCounters{Hits: 79, Misses: 17, Entries: 17},
		Train:   expt.MemoCounters{Hits: 38, Misses: 1, Entries: 1},
	}
	if want.Memo != wantMemo {
		t.Errorf("memo counters %+v, want %+v", want.Memo, wantMemo)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers, 11)
		if got.Table.String() != want.Table.String() {
			t.Errorf("%d workers: table differs from 1 worker's:\n%s\nvs\n%s", workers, got.Table, want.Table)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: result differs from 1 worker's:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
	// Same engine, different seed: the breeding stream must actually change.
	_ = run(1, 12) // winners may legitimately coincide; this run just proves a different seed completes
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

// TestPlateauStopsEarly runs one search with Plateau: 1 and the same search
// with the plateau off. The first must stop at the first generation that
// does not improve on the best so far, before Generations ran, reporting
// StoppedEarly; everything it did run is what the uninterrupted search ran
// up to that generation.
func TestPlateauStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	run := func(plateau int) *search.Result {
		res, err := search.Run(tinyOptions(tinyTPCB()), search.Config{
			Population:  4,
			Generations: 4,
			Seed:        3,
			Plateau:     plateau,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	early, full := run(1), run(0)
	if full.StoppedEarly || len(full.Trajectory) != 4 {
		t.Fatalf("Plateau 0 stopped after %d of 4 generations (StoppedEarly %v)", len(full.Trajectory), full.StoppedEarly)
	}
	n := len(early.Trajectory)
	if !early.StoppedEarly || n >= 4 {
		t.Fatalf("Plateau 1 ran %d of 4 generations, StoppedEarly %v: want an early stop at this seed", n, early.StoppedEarly)
	}
	if n < 2 {
		t.Fatalf("Plateau 1 stopped after generation %d, which has no best to improve on", n)
	}
	if last, prev := early.Trajectory[n-1], early.Trajectory[n-2]; last.GenBest.Fitness < prev.Best.Fitness {
		t.Errorf("stopped after generation %d, which improved the best from %.4f to %.4f", n, prev.Best.Fitness, last.GenBest.Fitness)
	}
	if !reflect.DeepEqual(early.Trajectory, full.Trajectory[:n]) {
		t.Errorf("Plateau 1 trajectory is not a prefix of Plateau 0's:\n%+v\nvs\n%+v", early.Trajectory, full.Trajectory[:n])
	}
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
