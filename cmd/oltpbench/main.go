// oltpbench runs an OLTP workload on the simulated multiprocessor and
// reports throughput and memory-system behavior.
//
// The run is described by expt.Options, filled from the flag surface the
// four commands share (expt.BindFlags), and measured through the
// machine.Config an expt session lowers those options to — the one
// layoutlab's tables measure through, group-commit policy (-gc; training runs
// ungrouped) included; this command only adds a -layout file and, under
// -reopt, a machine.Reoptimizer (period -reopt, threshold -drift, the
// training mix, the same pipeline as its Retrain). The icache and fetch
// sequence lines are battery groups (expt.SinkComb4W(64), expt.SinkSeq): the
// per-CPU combined cache of Figure 12 and the application stream of Figure 8.
//
// With -opt it first trains in-process — profiling a (possibly different)
// workload at a (possibly different) shard count under the baseline layout,
// then optimizing with the named combo — and evaluates the resulting
// layout, so profile-transplant runs work standalone. -opt takes any layout
// name a session knows:
//
//	oltpbench -workload tpcb -txns 500 -cpus 4 -layout app.layout
//	oltpbench -workload ordere -quick
//	oltpbench -workload ordere -shards 4 -gc window:60000
//	oltpbench -workload tpcb -shards 4 -gc flushcount
//	oltpbench -workload tpcb -shards 4 -gc p99 -percentiles
//	oltpbench -workload tpcb -opt all -train-workload ycsb -train-shards 4
//	oltpbench -workload tpcb -opt all -profile-store /var/cache/pgo   # warm store skips training
//	oltpbench -workload ycsb -opt all -reopt 200 -stall 40            # online drift re-optimization
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

func main() {
	pctiles := flag.Bool("percentiles", false, "report per-transaction latency percentiles (overall and per shard × kind)")
	f := expt.BindFlags(flag.CommandLine, expt.Oltpbench)
	flag.Parse()
	if err := f.Resolve(); err != nil {
		fatal(err)
	}
	o := f.Opt

	// The session owns the images and, under -opt, the whole train → (store)
	// → layout path, so this command trains, keys the profile store and
	// builds fused images exactly as layoutlab does.
	s, err := f.NewSession()
	if err != nil {
		fatal(err)
	}
	layout := "base"
	if f.Layout != "" {
		layout = f.Layout
	}
	// Resolving the name first rejects a typo before the training run.
	spec, err := s.PipelineSpec(layout)
	if err != nil {
		fatal(err)
	}
	// trainFreq anchors -reopt's drift detector.
	var trainFreq map[string]float64
	if f.Layout != "" {
		if trainFreq, err = s.TrainKindFreq(); err != nil {
			fatal(err)
		}
		if e := s.Source().LastStoreHit(); e != nil {
			fmt.Printf("profile store:    hit (trained %s ago), training run skipped\n",
				e.Age(time.Now()).Round(time.Second))
		} else {
			fmt.Printf("trained on:       %s\n", s.TrainSpec())
		}
	}
	cfg, err := s.MachineConfig(layout, o.CPUs)
	if err != nil {
		fatal(err)
	}
	app := cfg.AppImage
	if f.Layout != "" {
		// A fusing pipeline clones procedures into a specialized copy of the
		// image; the grown image is what the measurement runs over.
		if app != s.AppImage() {
			rep := s.Report(layout)
			fmt.Printf("fused:            %d transaction kinds, %d procedures cloned (%.1f KB growth)\n",
				rep.FusedKinds, rep.ClonedProcs, float64(rep.CloneWords*isa.WordBytes)/1024)
		}
		fmt.Printf("optimized with:   %q (%s)\n", layout, spec)
	}
	if f.LayoutFile != "" {
		if cfg.AppLayout, err = program.ReadFile(f.LayoutFile, func(r io.Reader) (*program.Layout, error) {
			return program.LoadLayout(r, app.Prog)
		}); err != nil {
			fatal(err)
		}
	}
	if f.Reopt > 0 {
		// The hook re-runs the same pipeline over the online profile.
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			fatal(err)
		}
		cfg.Reopt = &machine.Reoptimizer{
			Every: f.Reopt, Drift: f.Drift, TrainMix: trainFreq,
			Retrain: func(pf *profile.Profile) (*program.Layout, error) {
				l, _, err := pl.Run(app.Prog, pf)
				return l, err
			},
		}
	}

	m, err := s.MeasureConfig(cfg, expt.SinkComb4W(64)|expt.SinkSeq, "the run")
	if err != nil {
		fatal(err)
	}
	res := m.Res

	fmt.Printf("workload:         %s\n", o.Workload.Name())
	if o.Shards > 1 {
		part := o.Workload.Partitioning()
		fmt.Printf("shards:           %d engines by %s, %d%% cross-shard (%d cross-shard txns, %d aborts)\n",
			o.Shards, part.Key, part.CrossShardPct, res.CrossShard, res.Aborted)
	}
	if gc := o.AutoGroupCommit; gc == machine.AutoGCFlushCount || gc == machine.AutoGCTargetP99 {
		fmt.Printf("gc windows:       %v (auto-tuned, mode %s)\n", m.GCWindows, o.AutoGroupCommit)
	}
	if o.PredictFastPath {
		fmt.Printf("fast path:        %d predicted local, %d mispredicted (aborted and retried distributed)\n",
			res.Predicted, res.Mispredicted)
	}
	fmt.Printf("committed:        %d transactions\n", res.Committed)
	fmt.Printf("instructions:     %d app + %d kernel (%.1f%% kernel)\n",
		res.AppInstrs, res.KernelInstrs, res.KernelFrac()*100)
	fmt.Printf("per transaction:  %.0f instructions\n",
		float64(res.BusyInstrs)/float64(res.Committed))
	ic := m.Comb4W[64]
	fmt.Printf("icache 64KB/128B/4-way: %d misses (%.3f%% of line accesses)\n", ic.Misses, ic.MissRate()*100)
	fmt.Printf("mean app sequence:      %.2f instructions\n", m.Seq.Mean())
	if o.FetchStallPenaltyInstr > 0 {
		fmt.Printf("fetch stalls:     %d instr-times (%d per L1I miss)\n", res.FetchStallInstr, o.FetchStallPenaltyInstr)
	}
	fmt.Printf("log: %d flushes, %d grouped commits, %d blocked instr-time; %d lock conflicts; idle %d\n",
		res.LogFlushes, res.GroupedCommits, res.LogBlockedInstr, res.LockConflicts, res.IdleInstrs)
	if f.Reopt > 0 {
		fmt.Printf("reopt:            %d layout swap(s), %d instr swap stall; pre-swap p99=%d post-swap p99=%d\n",
			res.Reopts, res.SwapStallInstr, res.PreSwapP99, res.PostSwapP99)
	}
	if o.ProfileStore != nil {
		st := o.ProfileStore.Stats()
		fmt.Printf("profile store:    hits=%d misses=%d evictions=%d trained=%d\n",
			st.Hits, st.Misses, st.Evictions, s.Source().TrainRunsExecuted())
	}
	if *pctiles {
		l := res.Latency
		fmt.Printf("latency (instr-times): mean=%.0f p50=%d p95=%d p99=%d max=%d over %d txns\n",
			l.Mean, l.P50, l.P95, l.P99, l.Max, l.N)
		for _, c := range m.Latency {
			s := c.Summary
			fmt.Printf("  shard %d %-14s n=%-6d p50=%-10d p95=%-10d p99=%-10d max=%d\n",
				c.Shard, c.Kind, s.N, s.P50, s.P95, s.P99, s.Max)
		}
	}
	// MeasureConfig audited the workload's invariants after the drain.
	fmt.Println("invariants:       ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oltpbench:", err)
	os.Exit(1)
}
