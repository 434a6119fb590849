// oltpbench runs an OLTP workload on the simulated multiprocessor and
// reports throughput and memory-system behavior, optionally recording the
// instruction/data trace for offline replay with cmd/icachesim.
//
// With -opt it first trains in-process — profiling a (possibly different)
// workload at a (possibly different) shard count under the baseline layout,
// then optimizing with the named combo — and evaluates the resulting
// layout, so profile-transplant runs work standalone. Training, the profile
// store and the layout build go through an expt.Session, the same path
// layoutlab measures through; -opt takes any layout name a session knows:
//
//	oltpbench -workload tpcb -txns 500 -cpus 4 -layout app.layout -trace run.trace
//	oltpbench -workload ordere -quick
//	oltpbench -workload ordere -shards 4 -gcwindow 60000
//	oltpbench -workload tpcb -shards 4 -gcauto
//	oltpbench -workload tpcb -shards 4 -gcp99 -percentiles
//	oltpbench -workload tpcb -opt all -train-workload ycsb -train-shards 4
//	oltpbench -workload tpcb -opt all -profile-store /var/cache/pgo   # warm store skips training
//	oltpbench -workload ycsb -opt all -reopt 200 -stall 40            # online drift re-optimization
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codelayout/internal/cache"
	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/trace"
	"codelayout/internal/workload"

	"codelayout/internal/tpcb" // registers the TPC-B workload
	"codelayout/internal/ycsb" // registers the key-value workload

	_ "codelayout/internal/ordere" // register the order-entry workload
)

func main() {
	var (
		seed      = flag.Int64("seed", 2001, "image generation seed")
		runSeed   = flag.Int64("runseed", 2001, "workload seed")
		txns      = flag.Int("txns", 500, "measured transactions")
		warmup    = flag.Int("warmup", 100, "warmup transactions")
		cpus      = flag.Int("cpus", 4, "processors")
		procs     = flag.Int("procs", 8, "server processes per CPU")
		shards    = flag.Int("shards", 1, "partitioned database engines behind the shard router")
		gcWindow  = flag.Uint64("gcwindow", 0, "group-commit batching window in instruction-times (0 = flush as soon as a leader arrives)")
		gcAuto    = flag.Bool("gcauto", false, "pick each shard's group-commit window from the warmup commit arrival rate (fewest flushes)")
		gcP99     = flag.Bool("gcp99", false, "pick each shard's group-commit window to minimize modeled p99 latency from the warmup histogram")
		perCommit = flag.Bool("percommit", false, "disable group commit: every commit pays its own log write")
		fastPath  = flag.Bool("fastpath", false, "enable the predictive single-shard fast path (needs -shards > 1): predicted-local transactions skip the router and 2PC coordinator")
		pctiles   = flag.Bool("percentiles", false, "report per-transaction latency percentiles (overall and per shard × kind)")
		libScale  = flag.Float64("libscale", 1.0, "library size multiplier")
		cold      = flag.Int("cold", 6_400_000, "app cold words")
		wlName    = flag.String("workload", "tpcb", fmt.Sprintf("workload to run %v", workload.Names()))
		readPct   = flag.Int("readpct", -1, "ycsb: point-read share of the mix in [0, 100]; 0 is a valid pure-update mix (negative = workload default)")
		zipfTheta = flag.Float64("zipf", 0, "ycsb: Zipfian key-skew theta in [0, 1); 0 = uniform")
		hotFrac   = flag.Float64("hotfrac", 0, "tpcb: hot-account fraction in [0, 1); 0 = uniform")
		quick     = flag.Bool("quick", false, "use the workload's quick scale")
		layoutIn  = flag.String("layout", "", "optimized layout file (from spike); default baseline")
		optCombo  = flag.String("opt", "", "train in-process and optimize with this combo (e.g. all, ipchain, fusion) before measuring")
		stall     = flag.Uint64("stall", 0, "instruction-times of stall charged per L1 icache miss on the fetch clock (0 = pure fetch-bandwidth clock)")
		trainWl   = flag.String("train-workload", "", "workload to profile when -opt is set (default: the evaluated workload)")
		trainSh   = flag.Int("train-shards", 0, "shard count of the -opt training run (default: -shards)")
		trainTxns = flag.Int("train-txns", 2000, "profiled transactions of the -opt training run")
		tracePath = flag.String("trace", "", "write the measured trace to this file")
		storeDir  = flag.String("profile-store", "", "directory of the persistent profile store; an -opt training already in the store is loaded instead of re-run")
		reoptN    = flag.Int("reopt", 0, "re-optimize the app layout online every N committed transactions when the kind mix drifts from the training mix (needs -opt; not fusion)")
		driftT    = flag.Float64("drift", 0, "L1 kind-mix distance past which -reopt retrains (0 selects the default threshold)")
	)
	flag.Parse()

	if *optCombo != "" && *layoutIn != "" {
		fatal(fmt.Errorf("-opt and -layout conflict: one trains in-process, the other loads a layout file"))
	}
	if *reoptN > 0 && *optCombo == "" {
		fatal(fmt.Errorf("-reopt needs -opt: online re-optimization retrains with the same combo pipeline"))
	}
	if *reoptN > 0 && *optCombo == "fusion" {
		fatal(fmt.Errorf("-reopt cannot hot-swap fused layouts: fusion grows the program image, which is fixed once the run starts"))
	}
	if *gcAuto && *gcP99 {
		fatal(fmt.Errorf("-gcauto and -gcp99 conflict: pick one auto-tuning mode"))
	}
	if *fastPath && *shards <= 1 {
		fatal(fmt.Errorf("-fastpath needs -shards > 1 (a single engine has no router to skip)"))
	}
	// Percentage and fraction knobs fail fast before the image builds.
	if *readPct > 100 {
		fatal(fmt.Errorf("-readpct = %d; must be in [0, 100] (negative selects the workload default)", *readPct))
	}
	if *zipfTheta < 0 || *zipfTheta >= 1 {
		fatal(fmt.Errorf("-zipf = %v; must be in [0, 1)", *zipfTheta))
	}
	if *hotFrac < 0 || *hotFrac >= 1 {
		fatal(fmt.Errorf("-hotfrac = %v; must be in [0, 1)", *hotFrac))
	}
	gcMode := machine.AutoGCOff
	if *gcAuto {
		gcMode = machine.AutoGCFlushCount
	}
	if *gcP99 {
		gcMode = machine.AutoGCTargetP99
	}

	wl, err := workload.New(*wlName)
	if err != nil {
		fatal(err)
	}
	if *quick {
		wl = wl.QuickScale()
	}
	if *readPct >= 0 {
		w, ok := wl.(*ycsb.Workload)
		if !ok {
			fatal(fmt.Errorf("-readpct: workload %s has no read/update mix knob", wl.Name()))
		}
		w.ReadPct = *readPct
	}
	if *zipfTheta > 0 {
		w, ok := wl.(*ycsb.Workload)
		if !ok {
			fatal(fmt.Errorf("-zipf: workload %s has no Zipfian skew knob", wl.Name()))
		}
		w.ZipfTheta = *zipfTheta
	}
	if *hotFrac > 0 {
		w, ok := wl.(*tpcb.Workload)
		if !ok {
			fatal(fmt.Errorf("-hotfrac: workload %s has no hot-account knob", wl.Name()))
		}
		w.HotAccountFrac = *hotFrac
	}

	// The training workload (when it differs) joins the image, so the
	// trained profile maps onto the same program the evaluation runs.
	var extra []workload.Workload
	train := wl
	if *trainWl != "" && *trainWl != *wlName {
		train, err = workload.New(*trainWl)
		if err != nil {
			fatal(err)
		}
		if *quick {
			train = train.QuickScale()
		}
		extra = append(extra, train)
	}

	var store *pstore.Store
	if *storeDir != "" {
		if store, err = pstore.Open(*storeDir); err != nil {
			fatal(err)
		}
	}

	// An expt session owns the images and, under -opt, the whole train →
	// (store) → layout path, so this command trains, keys the profile store
	// and builds fused images exactly as layoutlab does. Only the fields that
	// shape the image and the training run are filled in: the measured run
	// below stays this command's own machine.Config.
	def := expt.DefaultOptions() // the kernel size and DCPI period have no flag
	o := expt.Options{
		Seed: *seed, LibScale: *libScale, ColdWords: *cold,
		KernColdWords: def.KernColdWords, DCPIPeriod: def.DCPIPeriod,
		Workload: wl, PredictFastPath: *fastPath, ProfileStore: store,
		CPUs: *cpus, ProcsPerCPU: *procs, Shards: *shards, WarmupTxns: *warmup,
		// Zero train fields inherit: the shard count from -shards, the
		// processor count and warmup from the evaluation side.
		Train: expt.TrainConfig{Workload: train, Seed: *runSeed + 7, Shards: *trainSh, Txns: *trainTxns},
	}
	src, err := expt.NewProfileSource(o, extra...)
	if err != nil {
		fatal(err)
	}
	s, err := expt.NewSessionFrom(src, o)
	if err != nil {
		fatal(err)
	}
	app, kern := s.AppImage(), s.KernelImage()
	appL, err := s.Layout("base")
	if err != nil {
		fatal(err)
	}
	if *layoutIn != "" {
		appL, err = program.LoadLayoutFile(*layoutIn, app.Prog)
		if err != nil {
			fatal(err)
		}
	}
	kernL, err := s.KernLayout("kbase")
	if err != nil {
		fatal(err)
	}

	// reoptFn and trainFreq are set by the -opt path and wire -reopt into
	// the measurement config: the hook re-runs the same pipeline over the
	// online profile, and trainFreq anchors the drift detector.
	var reoptFn func(*profile.Profile) (*program.Layout, error)
	var trainFreq map[string]float64

	if *optCombo != "" {
		// Resolving the name first rejects a typo before the training run.
		spec, err := s.PipelineSpec(*optCombo)
		if err != nil {
			fatal(err)
		}
		if trainFreq, err = s.TrainKindFreq(); err != nil {
			fatal(err)
		}
		if e := src.LastStoreHit(); e != nil {
			fmt.Printf("profile store:    hit (trained %s ago), training run skipped\n",
				e.Age(time.Now()).Round(time.Second))
		} else {
			fmt.Printf("trained on:       %s\n", s.TrainSpec())
		}
		if appL, err = s.Layout(*optCombo); err != nil {
			fatal(err)
		}
		// A fusing pipeline clones procedures into a specialized copy of the
		// image; the grown image is what the measurement must run over.
		app = s.AppImageFor(*optCombo)
		if app != s.AppImage() {
			rep := s.Report(*optCombo)
			fmt.Printf("fused:            %d transaction kinds, %d procedures cloned (%.1f KB growth)\n",
				rep.FusedKinds, rep.ClonedProcs, float64(rep.CloneWords*isa.WordBytes)/1024)
		}
		if *reoptN > 0 {
			pl, err := core.ParsePipeline(spec)
			if err != nil {
				fatal(err)
			}
			reoptFn = func(pf *profile.Profile) (*program.Layout, error) {
				l, _, err := pl.Run(app.Prog, pf)
				return l, err
			}
		}
		fmt.Printf("optimized with:   %q (%s)\n", *optCombo, spec)
	}

	ic := cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 4})
	seq := trace.NewSeqLen()
	sinks := []trace.Sink{ic, seq}
	var dataSinks []trace.DataSink
	var tw *trace.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw, err = trace.NewWriter(f)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, tw)
		dataSinks = append(dataSinks, tw)
	}

	cfg := machine.Config{
		CPUs: *cpus, ProcsPerCPU: *procs, Seed: *runSeed,
		Shards: *shards, GroupCommitWindowInstr: *gcWindow, PerCommitLogFlush: *perCommit,
		AutoGroupCommit: gcMode, PredictFastPath: *fastPath,
		FetchStallPenaltyInstr: *stall,
		WarmupTxns:             *warmup, Transactions: *txns,
		Workload: wl,
		AppImage: app, AppLayout: appL, KernImage: kern, KernLayout: kernL,
		Sinks: sinks, DataSinks: dataSinks,
	}
	if *reoptN > 0 {
		cfg.ReoptimizeEveryTxns = *reoptN
		cfg.DriftThreshold = *driftT
		cfg.TrainKindFreq = trainFreq
		cfg.Reoptimize = reoptFn
	}
	m, err := machine.New(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		fatal(err)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}

	fmt.Printf("workload:         %s\n", wl.Name())
	if *shards > 1 {
		part := wl.Partitioning()
		fmt.Printf("shards:           %d engines by %s, %d%% cross-shard (%d cross-shard txns, %d aborts)\n",
			*shards, part.Key, part.CrossShardPct, res.CrossShard, res.Aborted)
	}
	if gcMode != machine.AutoGCOff {
		fmt.Printf("gc windows:       %v (auto-tuned, mode %s)\n", m.GroupCommitWindows(), gcMode)
	}
	if *fastPath {
		fmt.Printf("fast path:        %d predicted local, %d mispredicted (aborted and retried distributed)\n",
			res.Predicted, res.Mispredicted)
	}
	fmt.Printf("committed:        %d transactions\n", res.Committed)
	fmt.Printf("instructions:     %d app + %d kernel (%.1f%% kernel)\n",
		res.AppInstrs, res.KernelInstrs, res.KernelFrac()*100)
	fmt.Printf("per transaction:  %.0f instructions\n",
		float64(res.BusyInstrs)/float64(res.Committed))
	fmt.Printf("icache 64KB/128B/4-way: %d misses (%.3f%% of line accesses)\n",
		ic.Stats().Misses, ic.Stats().MissRate()*100)
	fmt.Printf("mean fetch sequence:    %.2f instructions\n", seq.Hist.Mean())
	if *stall > 0 {
		fmt.Printf("fetch stalls:     %d instr-times (%d per L1I miss)\n", res.FetchStallInstr, *stall)
	}
	fmt.Printf("log: %d flushes, %d grouped commits, %d blocked instr-time; %d lock conflicts; idle %d\n",
		res.LogFlushes, res.GroupedCommits, res.LogBlockedInstr, res.LockConflicts, res.IdleInstrs)
	if *reoptN > 0 {
		fmt.Printf("reopt:            %d layout swap(s), %d instr swap stall; pre-swap p99=%d post-swap p99=%d\n",
			res.Reopts, res.SwapStallInstr, res.PreSwapP99, res.PostSwapP99)
	}
	if store != nil {
		st := store.Stats()
		fmt.Printf("profile store:    hits=%d misses=%d evictions=%d trained=%d\n",
			st.Hits, st.Misses, st.Evictions, src.TrainRunsExecuted())
	}
	if *pctiles {
		l := res.Latency
		fmt.Printf("latency (instr-times): mean=%.0f p50=%d p95=%d p99=%d max=%d over %d txns\n",
			l.Mean, l.P50, l.P95, l.P99, l.Max, l.N)
		for _, c := range m.LatencyByKind() {
			s := c.Summary
			fmt.Printf("  shard %d %-14s n=%-6d p50=%-10d p95=%-10d p99=%-10d max=%d\n",
				c.Shard, c.Kind, s.N, s.P50, s.P95, s.P99, s.Max)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		fatal(err)
	}
	fmt.Println("invariants:       ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oltpbench:", err)
	os.Exit(1)
}
