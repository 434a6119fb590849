// Benchmarks: one per reproduced table/figure (printing the regenerated
// rows/series on first run), plus the cross-workload, group-commit and
// fast-path runs and the BENCH_fusion/pgo/search.json writers (TxFuse,
// ContinuousPGO, PipelineSearch). Per-layer timing (cache fetch, the
// layout passes, the emitter walk, machine transactions, Pixie overhead) is
// bench/'s ledger, not this file.
//
// The figure benches share one quick-configuration session; run
//
//	go test -bench=. -benchmem
//
// for the full set, or `go run ./cmd/layoutlab -full -run all` for the
// paper-scale tables.
package codelayout_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"codelayout"
	"codelayout/internal/appmodel"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/search"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

var (
	sessOnce sync.Once
	sess     *expt.Session
	sessErr  error
	printed  sync.Map
)

func session(b *testing.B) *expt.Session {
	b.Helper()
	sessOnce.Do(func() {
		sess, sessErr = expt.NewSession(expt.QuickOptions())
	})
	if sessErr != nil {
		b.Fatal(sessErr)
	}
	return sess
}

// benchFigure runs one experiment per iteration (simulations are memoized
// inside the session after the first run) and prints its tables once.
func benchFigure(b *testing.B, id string) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		tables, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printed.LoadOrStore(id, true); !done {
			fmt.Fprintf(os.Stdout, "\n--- %s ---\n", id)
			for _, t := range tables {
				t.Render(os.Stdout)
			}
		}
	}
}

func BenchmarkFig03_ExecutionProfile(b *testing.B)   { benchFigure(b, "fig03") }
func BenchmarkFig04_MissSweep(b *testing.B)          { benchFigure(b, "fig04") }
func BenchmarkFig05_RelativeMisses(b *testing.B)     { benchFigure(b, "fig05") }
func BenchmarkFig06_Associativity(b *testing.B)      { benchFigure(b, "fig06") }
func BenchmarkFig07_OptCombos(b *testing.B)          { benchFigure(b, "fig07") }
func BenchmarkFig08_SequenceLengths(b *testing.B)    { benchFigure(b, "fig08") }
func BenchmarkFig09_WordUsage(b *testing.B)          { benchFigure(b, "fig09") }
func BenchmarkFig10_WordReuse(b *testing.B)          { benchFigure(b, "fig10") }
func BenchmarkFig11_LineLifetimes(b *testing.B)      { benchFigure(b, "fig11") }
func BenchmarkFig12_CombinedStreams(b *testing.B)    { benchFigure(b, "fig12") }
func BenchmarkFig13_Interference(b *testing.B)       { benchFigure(b, "fig13") }
func BenchmarkFig14_TLBandL2(b *testing.B)           { benchFigure(b, "fig14") }
func BenchmarkFig15_ExecutionTime(b *testing.B)      { benchFigure(b, "fig15") }
func BenchmarkText_Footprint(b *testing.B)           { benchFigure(b, "footprint") }
func BenchmarkText_HW21164(b *testing.B)             { benchFigure(b, "hw21164") }
func BenchmarkText_Speedups(b *testing.B)            { benchFigure(b, "speedup") }
func BenchmarkText_KernelOpt(b *testing.B)           { benchFigure(b, "kernopt") }
func BenchmarkAblation_Splitting(b *testing.B)       { benchFigure(b, "abl-split") }
func BenchmarkAblation_CFA(b *testing.B)             { benchFigure(b, "abl-cfa") }
func BenchmarkAblation_SamplingProfile(b *testing.B) { benchFigure(b, "abl-profile") }

// ---- Extension tables ----

// benchWorkloads names the tiny per-workload setups the cross-workload
// benchmarks run against.
func benchWorkloads() map[string]workload.Workload {
	return map[string]workload.Workload{
		"tpcb":   tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 100}),
		"ordere": ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 30, Items: 100}),
	}
}

var (
	benchImgOnce sync.Once
	benchImgs    map[string]*codegen.Image
	benchImgErr  error
)

// benchImages builds one small app image per workload, shared across
// benchmark iterations.
func benchImages(b *testing.B) map[string]*codegen.Image {
	b.Helper()
	benchImgOnce.Do(func() {
		benchImgs = make(map[string]*codegen.Image)
		for name, wl := range benchWorkloads() {
			img, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl})
			if err != nil {
				benchImgErr = err
				return
			}
			benchImgs[name] = img
		}
	})
	if benchImgErr != nil {
		b.Fatal(benchImgErr)
	}
	return benchImgs
}

// BenchmarkCrossWorkloadOptimize measures the full optimization pipeline on
// each workload's image (profile collection + optimize + optimized re-run),
// printing the per-workload miss reduction once.
func BenchmarkCrossWorkloadOptimize(b *testing.B) {
	s := session(b)
	kimg := s.KernelImage()
	kernL, err := codelayout.BaselineLayout(kimg.Prog)
	if err != nil {
		b.Fatal(err)
	}
	imgs := benchImages(b)
	for name, wl := range benchWorkloads() {
		img := imgs[name]
		appL, err := codelayout.BaselineLayout(img.Prog)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				px := profile.NewPixie(img.Prog, "train")
				cfg := machine.Config{
					CPUs: 1, ProcsPerCPU: 4, Seed: 100,
					WarmupTxns: 2, Transactions: 30,
					Workload: wl,
					AppImage: img, AppLayout: appL, KernImage: kimg, KernLayout: kernL,
					AppCollector: px,
				}
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				pl, err := core.ComboPipeline("all")
				if err != nil {
					b.Fatal(err)
				}
				optL, _, err := pl.Run(img.Prog, px.Profile())
				if err != nil {
					b.Fatal(err)
				}
				measure := func(l *program.Layout) uint64 {
					ic := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 2})
					cfg := cfg
					cfg.AppLayout = l
					cfg.AppCollector = nil
					cfg.Seed = 7
					cfg.Sinks = []trace.Sink{trace.AppOnly(ic)}
					m, err := machine.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.Run(); err != nil {
						b.Fatal(err)
					}
					return ic.Stats().Misses
				}
				base, opt := measure(appL), measure(optL)
				if key := "xwl-" + name; i == 0 {
					if _, done := printed.LoadOrStore(key, true); !done {
						fmt.Fprintf(os.Stdout, "%s: app misses base=%d opt=%d (%.1f%% reduction)\n",
							name, base, opt, 100*(1-float64(opt)/float64(base)))
					}
				}
			}
		})
	}
}

// BenchmarkGroupCommit is the group-commit acceptance bench: at a fixed
// shard count under a commit-heavy TPC-B mix, it measures the
// blocked-on-log instruction-time per transaction for per-commit flushing,
// immediate group commit, and a 40k-instruction batching window. Group
// commit must flush less and block less than per-commit flushing; the
// printed line records the reduction.
func BenchmarkGroupCommit(b *testing.B) {
	s := session(b)
	kimg := s.KernelImage()
	kernL, err := codelayout.BaselineLayout(kimg.Prog)
	if err != nil {
		b.Fatal(err)
	}
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 48, TellersPerBranch: 4, AccountsPerBranch: 100})
	img, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	appL, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name      string
		perCommit bool
		window    uint64
	}{
		{"percommit", true, 0},
		{"group", false, 0},
		{"window40k", false, 40_000},
	}
	results := map[string]machine.Result{}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var res machine.Result
			for i := 0; i < b.N; i++ {
				m, err := machine.New(machine.Config{
					CPUs: 4, ProcsPerCPU: 16, Seed: 7, Shards: 2,
					PerCommitLogFlush: mode.perCommit, GroupCommitWindowInstr: mode.window,
					WarmupTxns: 40, Transactions: 300,
					Workload: wl,
					AppImage: img, AppLayout: appL, KernImage: kimg, KernLayout: kernL,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			results[mode.name] = res
			b.ReportMetric(float64(res.LogBlockedInstr)/float64(res.Committed), "logblocked-instr/txn")
			b.ReportMetric(float64(res.LogFlushes), "flushes")
			b.ReportMetric(float64(res.GroupedCommits), "grouped")
		})
	}
	pc, grp := results["percommit"], results["group"]
	if pc.Committed > 0 && grp.Committed > 0 {
		if _, done := printed.LoadOrStore("groupcommit", true); !done {
			fmt.Fprintf(os.Stdout,
				"group commit vs per-commit flushing (2 shards): flushes %d -> %d, blocked-on-log %.1fM -> %.1fM instr (%.1f%% less)\n",
				pc.LogFlushes, grp.LogFlushes,
				float64(pc.LogBlockedInstr)/1e6, float64(grp.LogBlockedInstr)/1e6,
				100*(1-float64(grp.LogBlockedInstr)/float64(pc.LogBlockedInstr)))
		}
	}
}

// BenchmarkPredictFastPath is the predictive fast path acceptance bench: at
// 8 shards under a low-cross-shard TPC-B mix, it compares transaction cost
// with the fast path off (every transaction routed, cross-shard ones through
// the 2PC coordinator) and on (predicted-local transactions commit through
// the plain per-shard session). The printed line records the instr/txn and
// p99 deltas plus the mispredict count.
func BenchmarkPredictFastPath(b *testing.B) {
	s := session(b)
	kimg := s.KernelImage()
	kernL, err := codelayout.BaselineLayout(kimg.Prog)
	if err != nil {
		b.Fatal(err)
	}
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 24, TellersPerBranch: 3, AccountsPerBranch: 100})
	wl.CrossShardPct = 1
	img, err := appmodel.Build(appmodel.Config{
		Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl, FastPath: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	appL, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		b.Fatal(err)
	}
	results := map[string]machine.Result{}
	for _, mode := range []struct {
		name string
		fast bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var res machine.Result
			for i := 0; i < b.N; i++ {
				m, err := machine.New(machine.Config{
					CPUs: 2, ProcsPerCPU: 8, Seed: 7, Shards: 8,
					PredictFastPath: mode.fast,
					WarmupTxns:      80, Transactions: 400,
					Workload: wl,
					AppImage: img, AppLayout: appL, KernImage: kimg, KernLayout: kernL,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
				if err := m.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
			}
			results[mode.name] = res
			b.ReportMetric(float64(res.BusyInstrs)/float64(res.Committed), "instr/txn")
			b.ReportMetric(float64(res.Latency.P99), "p99-instr")
			b.ReportMetric(float64(res.Mispredicted), "mispredicts")
		})
	}
	off, on := results["off"], results["on"]
	if off.Committed > 0 && on.Committed > 0 {
		if _, done := printed.LoadOrStore("fastpath", true); !done {
			fmt.Fprintf(os.Stdout,
				"predictive fast path (8 shards, 1%% cross): instr/txn %.0f -> %.0f (%.1f%% less), p99 %.2fM -> %.2fM instr, %d/%d predicted local, %d mispredicted\n",
				float64(off.BusyInstrs)/float64(off.Committed),
				float64(on.BusyInstrs)/float64(on.Committed),
				100*(1-(float64(on.BusyInstrs)/float64(on.Committed))/(float64(off.BusyInstrs)/float64(off.Committed))),
				float64(off.Latency.P99)/1e6, float64(on.Latency.P99)/1e6,
				on.Predicted, on.Committed, on.Mispredicted)
		}
	}
}

// fusionBenchRow is one layout's entry in the BENCH_fusion.json snapshot.
type fusionBenchRow struct {
	InstrPerTxn  float64 `json:"instr_per_txn"`
	L1IMissRatio float64 `json:"l1i_miss_ratio"`
	P50          uint64  `json:"p50_instr"`
	P99          uint64  `json:"p99_instr"`
}

// BenchmarkTxFuse is the transaction-fusion acceptance bench: base vs
// ipchain vs the fusion combo on TPC-B and order entry under the
// fetch-stall clock (40 instr-times per L1I miss), one sub-bench per
// workload × layout. A full pass over every sub-bench writes the
// machine-readable BENCH_fusion.json snapshot that pins the fusion pass's
// perf trajectory.
func BenchmarkTxFuse(b *testing.B) {
	const stall = 40
	fusionOpts := func(wl workload.Workload) expt.Options {
		o := expt.QuickOptions()
		o.Transactions = 60
		o.WarmupTxns = 15
		o.Train.Txns = 150
		o.CPUs = 2
		o.ProcsPerCPU = 4
		o.LibScale = 0.3
		o.ColdWords = 400_000
		o.KernColdWords = 100_000
		o.FetchStallPenaltyInstr = stall
		o.Workload = wl
		return o
	}
	twl := tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 120})
	owl := ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
	src, err := expt.NewProfileSource(fusionOpts(twl), owl)
	if err != nil {
		b.Fatal(err)
	}
	layouts := []string{"base", "ipchain", "fusion"}
	snapshot := map[string]map[string]fusionBenchRow{}
	for _, w := range []struct {
		name string
		wl   workload.Workload
	}{{"tpcb", twl}, {"ordere", owl}} {
		eo := fusionOpts(w.wl)
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			b.Fatal(err)
		}
		rows := map[string]fusionBenchRow{}
		for _, layout := range layouts {
			b.Run(w.name+"/"+layout, func(b *testing.B) {
				var m *expt.Measure
				for i := 0; i < b.N; i++ {
					var err error
					if m, err = s.Measure(layout, eo.CPUs); err != nil {
						b.Fatal(err)
					}
				}
				row := fusionBenchRow{
					InstrPerTxn:  float64(m.Res.BusyInstrs) / float64(m.Res.Committed),
					L1IMissRatio: m.App4W[64].MissRate(),
					P50:          m.Res.Latency.P50,
					P99:          m.Res.Latency.P99,
				}
				rows[layout] = row
				b.ReportMetric(row.InstrPerTxn, "instr/txn")
				b.ReportMetric(row.L1IMissRatio*100, "miss%")
				b.ReportMetric(float64(row.P50), "p50-instr")
				b.ReportMetric(float64(row.P99), "p99-instr")
			})
		}
		if len(rows) == len(layouts) {
			snapshot[w.name] = rows
		}
	}
	// Only a complete sweep (no -bench sub-filter) refreshes the snapshot.
	if len(snapshot) != 2 {
		return
	}
	if _, done := printed.LoadOrStore("txfuse-json", true); !done {
		out := struct {
			Note    string                               `json:"note"`
			Stall   uint64                               `json:"fetch_stall_penalty_instr"`
			Layouts map[string]map[string]fusionBenchRow `json:"workloads"`
		}{
			Note:    "base vs ipchain vs txfuse (fusion combo); latencies in instruction-times under the fetch-stall clock",
			Stall:   stall,
			Layouts: snapshot,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_fusion.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Fprintln(os.Stdout, "wrote BENCH_fusion.json")
	}
}

// BenchmarkContinuousPGO is the continuous-PGO acceptance bench, in two
// halves. train/cold vs train/warm time a session's training against a
// profile store: the cold run executes the profiling simulation and
// persists it, the warm one loads the entry from disk and skips training.
// reopt/drift runs the forced read→update mix inversion twice — once frozen
// on the stale read-trained layout, once with the online re-optimizer — and
// reports the tail on each side of the hot swap. A full pass writes the
// BENCH_pgo.json snapshot.
func BenchmarkContinuousPGO(b *testing.B) {
	storeOpts := func() expt.Options {
		o := expt.QuickOptions()
		o.Transactions = 50
		o.WarmupTxns = 10
		o.Train.Txns = 120
		o.CPUs = 1
		o.ProcsPerCPU = 4
		o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 200})
		o.LibScale = 0.3
		o.ColdWords = 400_000
		o.KernColdWords = 100_000
		return o
	}
	// trainOnce is one process's training against the store directory:
	// fresh Store, fresh session, timed Train only (image building is
	// identical on both sides and excluded).
	trainOnce := func(b *testing.B, dir string) time.Duration {
		store, err := pstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		o := storeOpts()
		o.ProfileStore = store
		s, err := expt.NewSession(o)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := s.Train(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var coldMs, warmMs float64
	b.Run("train/cold", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += trainOnce(b, b.TempDir())
		}
		coldMs = float64(total.Milliseconds()) / float64(b.N)
		b.ReportMetric(coldMs, "ms/train")
	})
	b.Run("train/warm", func(b *testing.B) {
		dir := b.TempDir()
		trainOnce(b, dir) // populate the store outside the measured loop
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += trainOnce(b, dir)
		}
		warmMs = float64(total.Milliseconds()) / float64(b.N)
		b.ReportMetric(warmMs, "ms/train")
	})

	var reoptRow struct {
		Reopts         uint64 `json:"reopts"`
		SwapStallInstr uint64 `json:"swap_stall_instr"`
		StaleP99       uint64 `json:"stale_layout_update_p99"`
		PreSwapP99     uint64 `json:"pre_swap_p99"`
		PostSwapP99    uint64 `json:"post_swap_p99"`
	}
	b.Run("reopt/drift", func(b *testing.B) {
		wl := func(shift int) *ycsb.Workload {
			return &ycsb.Workload{Scale: ycsb.Scale{Records: 4000}, ReadPct: 100,
				ShiftAfterGens: shift, ShiftReadPct: 0}
		}
		// Full-size library code: the conflict-miss regime where layout
		// choice moves the tail (see internal/machine/reopt_test.go).
		app, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 1.0, ColdWords: 400_000, Workload: wl(0)})
		if err != nil {
			b.Fatal(err)
		}
		appL, err := program.BaselineLayout(app.Prog)
		if err != nil {
			b.Fatal(err)
		}
		kern, err := kernel.Build(kernel.Config{Seed: 43, ColdWords: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		kernL, err := program.BaselineLayout(kern.Prog)
		if err != nil {
			b.Fatal(err)
		}
		optimize := func(pf *profile.Profile) (*program.Layout, error) {
			pl, err := core.ComboPipeline("all")
			if err != nil {
				return nil, err
			}
			l, _, err := pl.Run(app.Prog, pf)
			return l, err
		}
		px := profile.NewPixie(app.Prog, "train")
		tm, err := machine.New(machine.Config{
			CPUs: 1, ProcsPerCPU: 4, Seed: 7, WarmupTxns: 10, Transactions: 120,
			Workload: wl(0), AppImage: app, AppLayout: appL,
			KernImage: kern, KernLayout: kernL, AppCollector: px,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tm.Run(); err != nil {
			b.Fatal(err)
		}
		trainedL, err := optimize(px.Profile())
		if err != nil {
			b.Fatal(err)
		}
		trainFreq := tm.KindFrequencies()
		serving := func() machine.Config {
			return machine.Config{
				CPUs: 1, ProcsPerCPU: 4, Seed: 7, WarmupTxns: 10, Transactions: 900,
				Workload: wl(180), AppImage: app, AppLayout: trainedL,
				KernImage: kern, KernLayout: kernL,
				FetchStallPenaltyInstr: 250,
				LogWriteDelayInstr:     4_000, PreadDelayInstr: 4_000,
			}
		}
		for i := 0; i < b.N; i++ {
			mBase, err := machine.New(serving())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mBase.Run(); err != nil {
				b.Fatal(err)
			}
			// Pre-shift traffic is 100% reads, so the baseline's update-kind
			// p99 is exactly the drifted traffic on the stale layout.
			for _, c := range mBase.LatencyByKind() {
				if c.Kind == "update" {
					reoptRow.StaleP99 = c.Summary.P99
				}
			}
			cfg := serving()
			cfg.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: trainFreq, Retrain: optimize}
			mRe, err := machine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reRes, err := mRe.Run()
			if err != nil {
				b.Fatal(err)
			}
			reoptRow.Reopts = reRes.Reopts
			reoptRow.SwapStallInstr = reRes.SwapStallInstr
			reoptRow.PreSwapP99 = reRes.PreSwapP99
			reoptRow.PostSwapP99 = reRes.PostSwapP99
		}
		b.ReportMetric(float64(reoptRow.StaleP99), "stale-p99")
		b.ReportMetric(float64(reoptRow.PostSwapP99), "postswap-p99")
		b.ReportMetric(float64(reoptRow.Reopts), "swaps")
	})

	// Only a complete sweep (no -bench sub-filter) refreshes the snapshot.
	if coldMs == 0 || warmMs == 0 || reoptRow.PostSwapP99 == 0 {
		return
	}
	if _, done := printed.LoadOrStore("pgo-json", true); !done {
		out := struct {
			Note  string `json:"note"`
			Store struct {
				ColdTrainMs float64 `json:"cold_train_ms"`
				WarmTrainMs float64 `json:"warm_train_ms"`
			} `json:"profile_store"`
			Reopt interface{} `json:"online_reopt"`
		}{
			Note:  "cold vs warm-store training wall time, and the online re-optimizer's tail on each side of the hot swap under a forced read-to-update mix inversion (latencies in instruction-times)",
			Reopt: &reoptRow,
		}
		out.Store.ColdTrainMs = coldMs
		out.Store.WarmTrainMs = warmMs
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_pgo.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(os.Stdout, "wrote BENCH_pgo.json (train %.0fms cold -> %.0fms warm; update p99 %d stale -> %d post-swap)\n",
			coldMs, warmMs, reoptRow.StaleP99, reoptRow.PostSwapP99)
	}
}

// searchBenchRow is one workload's winner-vs-fusion entry in the
// BENCH_search.json snapshot.
type searchBenchRow struct {
	WinnerInstrPerTxn float64 `json:"winner_instr_per_txn"`
	FusionInstrPerTxn float64 `json:"fusion_instr_per_txn"`
	WinnerP50         uint64  `json:"winner_p50_instr"`
	FusionP50         uint64  `json:"fusion_p50_instr"`
}

// BenchmarkPipelineSearch is the evolutionary-search acceptance bench: a
// fixed-seed search over tpcb+ordere+ycsb at tiny scale, timed end to end.
// The metrics record how much the memo deduplicated (simulations executed vs
// evaluations requested); the BENCH_search.json snapshot pins the winner's
// spec and its instr/txn and p50 against the hand-built fusion combo per
// workload.
func BenchmarkPipelineSearch(b *testing.B) {
	const stall = 40
	searchOpts := func(wl workload.Workload) expt.Options {
		o := expt.QuickOptions()
		o.Transactions = 60
		o.WarmupTxns = 15
		o.Train.Txns = 150
		o.CPUs = 2
		o.ProcsPerCPU = 4
		o.LibScale = 0.3
		o.ColdWords = 400_000
		o.KernColdWords = 100_000
		o.FetchStallPenaltyInstr = stall
		o.Workload = wl
		return o
	}
	mkWorkloads := func() []workload.Workload {
		return []workload.Workload{
			tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}),
			ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}),
			ycsb.NewScaled(ycsb.Scale{Records: 4_000}),
		}
	}
	var res *search.Result
	var wallMs float64
	for i := 0; i < b.N; i++ {
		wls := mkWorkloads()
		cfg := search.Config{Population: 6, Generations: 3, Seed: 7}
		for _, wl := range wls {
			cfg.Workloads = append(cfg.Workloads, search.WorkloadWeight{Workload: wl, Weight: 1})
		}
		start := time.Now()
		r, err := search.Run(searchOpts(wls[0]), cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
		wallMs = float64(time.Since(start).Milliseconds())
	}
	b.ReportMetric(wallMs, "ms/search")
	b.ReportMetric(res.Winner.Fitness, "fitness")
	b.ReportMetric(float64(res.Requested), "requested")
	b.ReportMetric(float64(res.Executed), "executed")

	// Re-measure winner vs fusion per workload for the snapshot (the search's
	// internal sessions are not exposed; these runs are identical tiny sims).
	wls := mkWorkloads()
	src, err := expt.NewProfileSource(searchOpts(wls[0]), wls[1:]...)
	if err != nil {
		b.Fatal(err)
	}
	snapshot := map[string]searchBenchRow{}
	for _, wl := range wls {
		eo := searchOpts(wl)
		eo.Train.Workload = wls[0]
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			b.Fatal(err)
		}
		win, err := s.Measure(res.Winner.Spec, eo.CPUs)
		if err != nil {
			b.Fatal(err)
		}
		fus, err := s.Measure("fusion", eo.CPUs)
		if err != nil {
			b.Fatal(err)
		}
		snapshot[wl.Name()] = searchBenchRow{
			WinnerInstrPerTxn: float64(win.Res.BusyInstrs+win.Res.FetchStallInstr) / float64(win.Res.Committed),
			FusionInstrPerTxn: float64(fus.Res.BusyInstrs+fus.Res.FetchStallInstr) / float64(fus.Res.Committed),
			WinnerP50:         win.Res.Latency.P50,
			FusionP50:         fus.Res.Latency.P50,
		}
	}
	type genPoint struct {
		Gen         int     `json:"gen"`
		BestFitness float64 `json:"best_fitness"`
	}
	var trajectory []genPoint
	for _, g := range res.Trajectory {
		trajectory = append(trajectory, genPoint{Gen: g.Gen, BestFitness: g.Best.Fitness})
	}
	if _, done := printed.LoadOrStore("search-json", true); !done {
		out := struct {
			Note        string                    `json:"note"`
			WallMs      float64                   `json:"wall_ms"`
			Requested   int                       `json:"evaluations_requested"`
			Unique      int                       `json:"unique_specs"`
			Executed    uint64                    `json:"simulations_executed"`
			PerWorkload uint64                    `json:"simulations_executed_per_workload"`
			WinnerSpec  string                    `json:"winner_spec"`
			Fitness     float64                   `json:"winner_fitness"`
			Trajectory  []genPoint                `json:"trajectory"`
			Workloads   map[string]searchBenchRow `json:"workloads"`
		}{
			Note:        "fixed-seed evolutionary pipeline search (pop 6, 3 gens, tpcb+ordere+ycsb); fitness is base-normalized instr+stall/txn; per-workload executed < requested is the memo-dedup margin",
			WallMs:      wallMs,
			Requested:   res.Requested,
			Unique:      res.Unique,
			Executed:    res.Executed,
			PerWorkload: res.Executed / 3,
			WinnerSpec:  res.Winner.Spec,
			Fitness:     res.Winner.Fitness,
			Trajectory:  trajectory,
			Workloads:   snapshot,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_search.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(os.Stdout, "wrote BENCH_search.json (winner %s, fitness %.4f, %d executed/workload for %d requested)\n",
			res.Winner.Spec, res.Winner.Fitness, res.Executed/3, res.Requested)
	}
}
