package machine_test

import (
	"runtime"
	"sync"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// testWorkloads lists the workloads every machine-level test runs against.
var testWorkloads = []string{"tpcb", "ordere"}

// smallWorkload returns a tiny instance of the named workload.
func smallWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	switch name {
	case "tpcb":
		return tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 200})
	case "ordere":
		return ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
	}
	t.Fatalf("unknown workload %q", name)
	return nil
}

// testImages builds a small app+kernel image pair for a workload.
func testImages(t *testing.T, wl workload.Workload) (*codegen.Image, *program.Layout, *codegen.Image, *program.Layout) {
	t.Helper()
	app, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	appL, err := program.BaselineLayout(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.Build(kernel.Config{Seed: 43, ColdWords: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := program.BaselineLayout(kern.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return app, appL, kern, kernL
}

func configFor(wl workload.Workload, app *codegen.Image, appL *program.Layout, kern *codegen.Image, kernL *program.Layout) machine.Config {
	return machine.Config{
		CPUs: 1, ProcsPerCPU: 4, Seed: 7,
		WarmupTxns: 5, Transactions: 40,
		Workload: wl,
		AppImage: app, AppLayout: appL,
		KernImage: kern, KernLayout: kernL,
	}
}

// testSetup builds images and a base config for the named workload.
func testSetup(t *testing.T, name string) machine.Config {
	t.Helper()
	wl := smallWorkload(t, name)
	app, appL, kern, kernL := testImages(t, wl)
	return configFor(wl, app, appL, kern, kernL)
}

func TestEndToEndRuns(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			cfg := testSetup(t, name)
			seq := trace.NewSeqLen()
			cfg.Sinks = []trace.Sink{seq}
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 40 {
				t.Fatalf("committed = %d", res.Committed)
			}
			if res.AppInstrs == 0 || res.KernelInstrs == 0 {
				t.Fatalf("instrs app=%d kern=%d", res.AppInstrs, res.KernelInstrs)
			}
			kf := res.KernelFrac()
			if kf <= 0.02 || kf >= 0.80 {
				t.Fatalf("kernel fraction = %f, implausible", kf)
			}
			seq.Flush()
			// Every word the sink was fed closes in some sequence, and the
			// histogram's Sum is exact far beyond these counts.
			if seq.Hist.Sum != float64(res.AppInstrs+res.KernelInstrs) {
				t.Fatalf("sink saw %v words, result says %d", seq.Hist.Sum, res.AppInstrs+res.KernelInstrs)
			}
			if seq.Hist.N == 0 {
				t.Fatal("no sequences measured")
			}
			mean := seq.Hist.Mean()
			if mean < 3 || mean > 20 {
				t.Fatalf("baseline mean sequence length = %f, outside plausible band", mean)
			}
			if res.LogFlushes == 0 {
				t.Fatal("no log flushes")
			}
			t.Logf("app=%d kern=%d (%.1f%% kernel), seqlen=%.2f, flushes=%d grouped=%d conflicts=%d",
				res.AppInstrs, res.KernelInstrs, kf*100, mean, res.LogFlushes, res.GroupedCommits, res.LockConflicts)
		})
	}
}

// TestWorkloadInvariantsAfterRun checks each workload's own consistency
// invariants (TPC-B balance conservation; order-entry order/order-line
// totals and payment flows) after a full simulated multiprocessor run.
func TestWorkloadInvariantsAfterRun(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			cfg := testSetup(t, name)
			cfg.CPUs = 2
			cfg.ProcsPerCPU = 6
			cfg.Transactions = 120
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterminism: the same seed gives the same result and cache statistics,
// and the coroutine switch does not depend on how many Ps exist — the two
// runs are made under GOMAXPROCS 1 and 4.
func TestDeterminism(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			wl := smallWorkload(t, name)
			app, appL, kern, kernL := testImages(t, wl)
			run := func(procs int) (machine.Result, *cache.Stats) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := configFor(smallWorkload(t, name), app, appL, kern, kernL)
				ic := cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 2})
				cfg.Sinks = []trace.Sink{ic}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, ic.Stats()
			}
			r1, s1 := run(1)
			r2, s2 := run(4)
			if r1 != r2 {
				t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
			}
			if s1.Misses != s2.Misses || s1.Accesses != s2.Accesses {
				t.Fatalf("cache stats differ: %d/%d vs %d/%d", s1.Misses, s1.Accesses, s2.Misses, s2.Accesses)
			}
		})
	}
}

// TestConcurrentMachinesBuildTheWalkTableOnce starts several machines at once
// over images no emitter has touched, so their first emitters race to compile
// the shared step tables (MeasureBatch workers do exactly this). Every run
// must read the same table: identical results, and nothing for the race
// detector to report (run with -race -count=10).
func TestConcurrentMachinesBuildTheWalkTableOnce(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	const n = 4
	results := make([]machine.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := configFor(smallWorkload(t, "tpcb"), app, appL, kern, kernL)
		cfg.FetchStallPenaltyInstr = 40
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := machine.New(cfg)
			if err == nil {
				results[i], err = m.Run()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("machine %d read a different table:\n%+v\n%+v", i, results[i], results[0])
		}
	}
}

func TestMultiCPUGroupCommitAndConflicts(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			cfg := testSetup(t, name)
			cfg.CPUs = 2
			cfg.ProcsPerCPU = 8
			cfg.Transactions = 150
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 150 {
				t.Fatalf("committed = %d", res.Committed)
			}
			if res.GroupedCommits == 0 {
				t.Fatal("no grouped commits with 16 processes — group commit broken")
			}
			if res.LogFlushes >= res.Committed {
				t.Fatalf("flushes %d >= commits %d: grouping ineffective", res.LogFlushes, res.Committed)
			}
			t.Logf("flushes=%d grouped=%d conflicts=%d idle=%d",
				res.LogFlushes, res.GroupedCommits, res.LockConflicts, res.IdleInstrs)
		})
	}
}

// TestOrderEntryRunsHotterLocks checks the design intent of the second
// workload: with the same process count, the order-entry mix produces more
// lock conflicts per committed transaction than TPC-B (it serializes on a
// handful of warehouse/district rows).
func TestOrderEntryRunsHotterLocks(t *testing.T) {
	conflictRate := func(name string) float64 {
		cfg := testSetup(t, name)
		cfg.CPUs = 2
		cfg.ProcsPerCPU = 8
		cfg.Transactions = 150
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.LockConflicts) / float64(res.Committed)
	}
	tb, oe := conflictRate("tpcb"), conflictRate("ordere")
	t.Logf("lock conflicts per txn: tpcb=%.3f ordere=%.3f", tb, oe)
	if oe <= tb {
		t.Fatalf("order-entry not hotter on locks: tpcb=%.3f ordere=%.3f", tb, oe)
	}
}

// TestOptimizedLayoutRunsAndReducesMisses is the pipeline's headline sanity
// check for both workloads: profile → optimize("all") → re-run → database
// results unchanged, instruction cache misses reduced.
func TestOptimizedLayoutRunsAndReducesMisses(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			wl := smallWorkload(t, name)
			app, appL, kern, kernL := testImages(t, wl)

			// Profile run.
			px := profile.NewPixie(app.Prog, "train")
			cfg := configFor(wl, app, appL, kern, kernL)
			cfg.Seed = 100 // training seed differs from evaluation seed
			cfg.AppCollector = px
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			prof := px.Profile()
			if prof.TotalBlocks() == 0 {
				t.Fatal("empty profile")
			}

			// Optimize.
			pl, err := core.ComboPipeline("all")
			if err != nil {
				t.Fatal(err)
			}
			optL, rep, err := pl.Run(app.Prog, prof)
			if err != nil {
				t.Fatal(err)
			}
			if err := optL.Validate(); err != nil {
				t.Fatal(err)
			}
			if rep.HotUnits == 0 {
				t.Fatal("no hot units")
			}

			measure := func(l *program.Layout) (uint64, machine.Result) {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.AppLayout = l
				ic := cache.New(cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 1})
				cfg.Sinks = []trace.Sink{trace.AppOnly(ic)}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return ic.Stats().Misses, res
			}
			baseMisses, baseRes := measure(appL)
			optMisses, optRes := measure(optL)
			if baseRes.Committed != optRes.Committed {
				t.Fatalf("committed differ: %d vs %d", baseRes.Committed, optRes.Committed)
			}
			if optMisses >= baseMisses {
				t.Fatalf("optimized layout did not reduce misses: base=%d opt=%d", baseMisses, optMisses)
			}
			t.Logf("misses: base=%d opt=%d (%.1f%% reduction); instr base=%d opt=%d",
				baseMisses, optMisses, 100*(1-float64(optMisses)/float64(baseMisses)),
				baseRes.AppInstrs, optRes.AppInstrs)
			// Better packing also shortens the dynamic path (elided branches).
			if optRes.AppInstrs > baseRes.AppInstrs {
				t.Fatalf("optimized binary executed more instructions: %d > %d", optRes.AppInstrs, baseRes.AppInstrs)
			}
		})
	}
}

func TestSequenceLengthImprovesWithChaining(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	px := profile.NewPixie(app.Prog, "train")
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.Seed = 100
	cfg.AppCollector = px
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pl, err := core.ComboPipeline("chain")
	if err != nil {
		t.Fatal(err)
	}
	optL, _, err := pl.Run(app.Prog, px.Profile())
	if err != nil {
		t.Fatal(err)
	}
	seqFor := func(l *program.Layout) float64 {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.AppLayout = l
		seq := trace.NewSeqLen()
		cfg.Sinks = []trace.Sink{trace.AppOnly(seq)}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		seq.Flush()
		return seq.Hist.Mean()
	}
	base := seqFor(appL)
	opt := seqFor(optL)
	if opt <= base {
		t.Fatalf("chaining did not lengthen sequences: base=%.2f opt=%.2f", base, opt)
	}
	t.Logf("mean sequence length: base=%.2f opt=%.2f", base, opt)
}
