package expt_test

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/ycsb"
)

// parseFlags runs one command line through the shared binding: register,
// parse, resolve. Nothing here builds an image or simulates.
func parseFlags(cmd expt.Command, args ...string) (*expt.Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := expt.BindFlags(fs, cmd)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f, f.Resolve()
}

// TestFlagsDefaults: with no flags each command's run description is the
// preset it documents — DefaultOptions for oltpgen, pixie and oltpbench
// (oltpbench's -opt training seed being runseed+7), QuickOptions for
// layoutlab.
func TestFlagsDefaults(t *testing.T) {
	benchDefaults := expt.DefaultOptions()
	benchDefaults.Train.Seed = benchDefaults.Seed + 7
	for _, tc := range []struct {
		name string
		cmd  expt.Command
		want expt.Options
	}{
		{"oltpgen", expt.Oltpgen, expt.DefaultOptions()},
		{"pixie", expt.Pixie, expt.DefaultOptions()},
		{"oltpbench", expt.Oltpbench, benchDefaults},
		{"layoutlab", expt.Layoutlab, expt.QuickOptions()},
	} {
		f, err := parseFlags(tc.cmd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(f.Opt, tc.want) {
			t.Errorf("%s: no-flag options\n got %+v\nwant %+v", tc.name, f.Opt, tc.want)
		}
		if f.Extra != nil || f.Matrix != nil {
			t.Errorf("%s: no-flag run resolved extra workloads %v / matrix %v", tc.name, f.Extra, f.Matrix)
		}
	}
}

// TestFlagsNameSets pins the flags the binding registers per command; with
// each command's own output flags these are the sets recorded in
// testdata/cliparity/flags-*.txt before the surface was folded.
func TestFlagsNameSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  expt.Command
		want string
	}{
		{"oltpgen", expt.Oltpgen, "cold kcold libscale seed train-workload workload"},
		{"pixie", expt.Pixie, "cold cpus libscale quick runseed seed shards train-shards train-workload txns warmup workload"},
		{"oltpbench", expt.Oltpbench, "cold cpus drift fastpath gcauto gcp99 gcwindow hotfrac layout libscale opt percommit procs profile-store quick readpct reopt runseed seed shards stall train-shards train-txns train-workload txns warmup workload zipf"},
		{"layoutlab", expt.Layoutlab, "cpus cross fastpath full gc hotfrac layout matrix profile-store quick ratios readpct seed shardlist shards stall table txns workload zipf"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		expt.BindFlags(fs, tc.cmd)
		var names []string
		fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
		sort.Strings(names)
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s flags\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func wantGC(mode machine.AutoGCMode) func(*testing.T, *expt.Flags) {
	return func(t *testing.T, f *expt.Flags) {
		if f.Opt.AutoGroupCommit != mode {
			t.Errorf("group commit resolved to %v, want %v", f.Opt.AutoGroupCommit, mode)
		}
	}
}

// TestFlagsResolve covers the overrides and the three seed conventions:
// -seed is the image seed in oltpbench and pixie, where -runseed drives the
// run (oltpbench trains on runseed+7, pixie's run is the training run), and
// both seeds in layoutlab (training on seed+7).
func TestFlagsResolve(t *testing.T) {
	full := expt.DefaultOptions()
	for _, tc := range []struct {
		name  string
		cmd   expt.Command
		args  string
		check func(t *testing.T, f *expt.Flags)
	}{
		{"layoutlab -full with overrides", expt.Layoutlab, "-full -txns 77 -cpus 3 -stall 40 -shards 4", func(t *testing.T, f *expt.Flags) {
			want := full
			want.Transactions, want.CPUs, want.FetchStallPenaltyInstr, want.Shards = 77, 3, 40, 4
			if !reflect.DeepEqual(f.Opt, want) {
				t.Errorf("got %+v\nwant %+v", f.Opt, want)
			}
		}},
		{"layoutlab seed", expt.Layoutlab, "-seed 5", func(t *testing.T, f *expt.Flags) {
			if f.Opt.Seed != 5 || f.Opt.Train.Seed != 12 {
				t.Errorf("seed %d train seed %d, want 5 and 12", f.Opt.Seed, f.Opt.Train.Seed)
			}
		}},
		{"oltpbench seeds", expt.Oltpbench, "-seed 5 -runseed 9", func(t *testing.T, f *expt.Flags) {
			// -seed reaches only the source NewSession builds, never the run.
			if f.Opt.Seed != 9 || f.Opt.Train.Seed != 16 {
				t.Errorf("run seed %d train seed %d, want 9 and 16", f.Opt.Seed, f.Opt.Train.Seed)
			}
		}},
		{"pixie seeds", expt.Pixie, "-seed 5 -runseed 9 -txns 300 -train-shards 2", func(t *testing.T, f *expt.Flags) {
			if tr := f.Opt.Train; tr.Seed != 9 || tr.Txns != 300 || tr.Shards != 2 {
				t.Errorf("train config %+v, want seed 9, 300 txns, 2 shards", tr)
			}
			if f.Opt.Transactions != full.Transactions {
				t.Errorf("pixie -txns leaked into the measured count: %d", f.Opt.Transactions)
			}
		}},
		{"oltpbench quick transplant", expt.Oltpbench, "-quick -workload tpcb -train-workload ycsb -gcp99 -shards 2 -fastpath -opt all", func(t *testing.T, f *expt.Flags) {
			if f.Opt.Workload.Name() != "tpcb" || len(f.Extra) != 1 || f.Extra[0] != f.Opt.Train.Workload || f.Extra[0].Name() != "ycsb" {
				t.Errorf("workload %s, extra %v, train %v", f.Opt.Workload.Name(), f.Extra, f.Opt.Train.Workload)
			}
			if !reflect.DeepEqual(f.Opt.Workload, tpcb.New().QuickScale()) {
				t.Errorf("-quick did not quick-scale the workload: %+v", f.Opt.Workload)
			}
			if f.Opt.AutoGroupCommit != machine.AutoGCTargetP99 || !f.Opt.PredictFastPath || f.Layout != "all" {
				t.Errorf("gc %v fastpath %v layout %q", f.Opt.AutoGroupCommit, f.Opt.PredictFastPath, f.Layout)
			}
		}},
		// A fixed window and per-commit flushing are oltpbench's alone: they
		// land on Flags, and the session options stay the preset's.
		{"oltpbench group commit stays off the options", expt.Oltpbench, "-gcwindow 60000 -percommit", func(t *testing.T, f *expt.Flags) {
			if f.GCWindow != 60000 || !f.PerCommit {
				t.Errorf("window %d per-commit %v, want 60000 and true", f.GCWindow, f.PerCommit)
			}
			want := full
			want.Train.Seed = want.Seed + 7
			if !reflect.DeepEqual(f.Opt, want) {
				t.Errorf("options moved: got %+v\nwant %+v", f.Opt, want)
			}
		}},
		{"oltpgen never quick-scales", expt.Oltpgen, "-workload ycsb -train-workload ycsb", func(t *testing.T, f *expt.Flags) {
			if !reflect.DeepEqual(f.Opt.Workload, ycsb.New()) || f.Extra != nil {
				t.Errorf("workload %+v extra %v", f.Opt.Workload, f.Extra)
			}
		}},
		{"layoutlab shardsweep spec", expt.Layoutlab, "-table shardsweep -shards 1,4 -gc off -fastpath=false -layout ipchain -cross 50", func(t *testing.T, f *expt.Flags) {
			want := expt.ShardSweepSpec{Shards: []int{1, 4}, Layouts: []string{"base", "ipchain"}}
			if !reflect.DeepEqual(f.Sweep, want) {
				t.Errorf("sweep %+v, want %+v", f.Sweep, want)
			}
			if f.Opt.AutoGroupCommit != machine.AutoGCOff {
				t.Errorf("-gc off resolved to %v", f.Opt.AutoGroupCommit)
			}
			if f.Opt.Shards != 0 || f.Opt.PredictFastPath {
				t.Errorf("sweep flags leaked into the options: shards %d fastpath %v", f.Opt.Shards, f.Opt.PredictFastPath)
			}
			if w := f.Opt.Workload.(*tpcb.Workload); w.CrossShardPct != 50 {
				t.Errorf("-cross not applied: %d", w.CrossShardPct)
			}
		}},
		// -gc is the shard sweep's group-commit mode (default the p99 tuner)
		// and no other table's.
		{"shardsweep -gc default", expt.Layoutlab, "-table shardsweep", wantGC(machine.AutoGCTargetP99)},
		{"shardsweep -gc flushcount", expt.Layoutlab, "-table shardsweep -gc flushcount", wantGC(machine.AutoGCFlushCount)},
		{"latency ignores -gc", expt.Layoutlab, "-table latency -gc flushcount", wantGC(machine.AutoGCOff)},
		{"layoutlab datalayout keeps the skew for the spec", expt.Layoutlab, "-table datalayout -workload ycsb -zipf 0.8 -readpct 0", func(t *testing.T, f *expt.Flags) {
			w := f.Opt.Workload.(*ycsb.Workload)
			if w.ZipfTheta != 0 || w.ReadPct != 0 || f.DataLayout.ZipfTheta != 0.8 {
				t.Errorf("workload zipf %v readpct %d, spec %+v", w.ZipfTheta, w.ReadPct, f.DataLayout)
			}
		}},
		{"matrix knobs reach every member that has them", expt.Layoutlab, "-table latency -matrix tpcb,ycsb -shardlist 1,2 -readpct 50 -hotfrac 0.5", func(t *testing.T, f *expt.Flags) {
			if len(f.Matrix) != 2 || !reflect.DeepEqual(f.ShardList, []int{1, 2}) {
				t.Fatalf("matrix %v shardlist %v", f.Matrix, f.ShardList)
			}
			if w := f.Matrix[0].(*tpcb.Workload); w.HotAccountFrac != 0.5 {
				t.Errorf("tpcb hot fraction %v, want 0.5", w.HotAccountFrac)
			}
			if w := f.Matrix[1].(*ycsb.Workload); w.ReadPct != 50 {
				t.Errorf("ycsb read pct %d, want 50", w.ReadPct)
			}
		}},
		{"profile store opens", expt.Layoutlab, "-profile-store " + t.TempDir(), func(t *testing.T, f *expt.Flags) {
			if f.Opt.ProfileStore == nil {
				t.Error("no store on the options")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parseFlags(tc.cmd, strings.Fields(tc.args)...)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, f)
		})
	}
}

// TestFlagsReject: every conflict and out-of-range value fails in Resolve —
// before any image builds — with an error naming the flag.
func TestFlagsReject(t *testing.T) {
	for _, tc := range []struct {
		cmd     expt.Command
		args    string
		mention string
	}{
		{expt.Layoutlab, "-quick -full", "-quick conflicts with -full"},
		{expt.Oltpbench, "-gcauto -gcp99", "-gcauto and -gcp99"},
		{expt.Oltpbench, "-fastpath", "-fastpath needs -shards > 1"},
		{expt.Oltpbench, "-fastpath -shards 1", "-fastpath needs -shards > 1"},
		{expt.Oltpbench, "-opt all -layout a.layout", "-opt and -layout conflict"},
		{expt.Oltpbench, "-reopt 100", "-reopt needs -opt"},
		{expt.Oltpbench, "-reopt 100 -opt fusion", "-reopt cannot hot-swap fused"},
		{expt.Oltpbench, "-workload ycsb -readpct 101", "-readpct = 101"},
		{expt.Oltpbench, "-workload ycsb -zipf 1", "-zipf = 1"},
		{expt.Layoutlab, "-hotfrac -0.1", "-hotfrac = -0.1"},
		{expt.Layoutlab, "-cross 101", "-cross = 101"},
		{expt.Layoutlab, "-table shardsweep -gc sometimes", `unknown -gc mode "sometimes"`},
		{expt.Layoutlab, "-table nope", `unknown table "nope"`},
		{expt.Oltpgen, "-workload nope", `unknown workload "nope"`},
		{expt.Pixie, "-train-workload nope", `unknown workload "nope"`},
		{expt.Layoutlab, "-table robustness -matrix tpcb,nope", `unknown workload "nope"`},
		{expt.Layoutlab, "-shards 1,2", "-shards accepts a list only with"},
		{expt.Layoutlab, "-table latency -shards 1,2", "-shards accepts a list only with"},
		{expt.Oltpbench, "-shards 1,2", "-shards accepts a list only with"},
		{expt.Oltpbench, "-shards two", `bad count "two"`},
		{expt.Layoutlab, "-table blend -ratios 0,half", `bad ratio "half"`},
		// Lists are checked before any image builds: a count the machine would
		// reject after a cell or two has been measured, an entry listed twice
		// (a matrix of one cell under four labels), a weight pstore.Blend
		// would reject without naming the flag.
		{expt.Layoutlab, "-table robustness -matrix tpcb,tpcb", `-matrix lists workload "tpcb" twice`},
		{expt.Layoutlab, "-table robustness -matrix tpcb -shardlist 0,1", "-shardlist: shard count 0 outside [1, 64]"},
		{expt.Layoutlab, "-table latency -shardlist 1,999", "-shardlist: shard count 999 outside [1, 64]"},
		{expt.Layoutlab, "-table latency -shardlist 2,4,2", "-shardlist: shard count 2 listed twice"},
		{expt.Layoutlab, "-table shardsweep -shards 1,65", "shard count 65 outside [1, 64]"},
		{expt.Oltpbench, "-shards 0", "shard count 0 outside [1, 64]"},
		{expt.Pixie, "-shards -3", "shard count -3 outside [1, 64]"},
		{expt.Layoutlab, "-table blend -ratios 2", "-ratios: weight 2 outside [0, 1]"},
		{expt.Layoutlab, "-table blend -ratios 0.5,-0.1", "-ratios: weight -0.1 outside [0, 1]"},
		{expt.Layoutlab, "-table blend -ratios NaN", "-ratios: weight NaN outside [0, 1]"},
		// A mix knob no measured workload has is an error, not a silent
		// default mix: the single workload, and the matrix tables that used to
		// drop the knobs.
		{expt.Oltpbench, "-workload tpcb -readpct 50", "-readpct"},
		{expt.Layoutlab, "-workload ordere -hotfrac 0.2", "-hotfrac"},
		{expt.Layoutlab, "-table latency -matrix tpcb -shardlist 1 -readpct 50 -hotfrac 0.5", "-readpct"},
		{expt.Layoutlab, "-table robustness -matrix ordere,ycsb -hotfrac 0.5", "-hotfrac"},
		{expt.Layoutlab, "-table search -matrix tpcb,ordere -zipf 0.9", "-zipf"},
	} {
		_, err := parseFlags(tc.cmd, strings.Fields(tc.args)...)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%q: error %q does not mention %q", tc.args, err, tc.mention)
		}
	}
}

// cliparityArgs are the command lines scripts/cliparity.sh runs through the
// four commands that share the flag surface, its shell variables expanded
// (the offline runs of its parity pairs differ only in the layout file name:
// one stands for all four).
var cliparityArgs = []string{
	"-workload ordere -quick -shards 1 -txns 120 -warmup 20 -percentiles",
	"-workload ordere -quick -shards 4 -txns 120 -warmup 20 -gcauto",
	"-table robustness -matrix tpcb,ycsb -shardlist 1,2 -txns 50",
	"-table latency -quick -matrix tpcb,ycsb -shardlist 1,2 -txns 50",
	"-workload tpcb -quick -shards 2 -txns 120 -warmup 30 -gcp99 -percentiles",
	"-table shardsweep -shards 1,4,16 -quick -txns 50 -layout base",
	"-table latency -quick -matrix tpcb,ordere -shardlist 1 -layout fusion -stall 40 -txns 50",
	"-out fimg -workload tpcb -libscale 0.3 -cold 400000",
	"-workload tpcb -libscale 0.3 -cold 400000 -txns 200 -warmup 20 -cpus 2 -out fuse.prof -kout fuse.kprof",
	"-workload tpcb -quick -shards 4 -txns 150 -warmup 40 -fastpath -percentiles",
	"-run fig04 -txns 50 -profile-store pgostore",
	"-table search -matrix tpcb -population 5 -generations 2 -search-seed 7 -txns 50 -memostats",
	"-table blend -ratios 0,1 -txns 50",
	"-table datalayout -quick -txns 50",
	"-workload ycsb -quick -txns 100 -warmup 20 -readpct 0",
	"-workload ycsb -quick -txns 200 -warmup 20 -cpus 1 -procs 4 -train-txns 200 -opt all -reopt 50 -stall 40 -profile-store pgostore-ob",
	"-out pimg -libscale 0.3 -cold 400000",
	"-quick -libscale 0.3 -cold 400000 -runseed 2008 -txns 300 -cpus 2 -out par.prof -kout par.kprof",
	"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -layout par.layout",
	"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -opt all -train-txns 300",
	"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -opt base -train-txns 300",
	"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -opt porder -train-txns 300",
	"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -opt chain,split:fine,porder:ph,align:8,materialize -train-txns 300",
	"-quick -txns 100 -warmup 20 -cpus 2",
	"",
}

// FuzzFlagsResolve: any command line (arguments separated by NUL, which no
// real argument holds) given to any of the four commands parses and resolves
// to an error or to a run description with a workload — never a panic, and,
// Resolve building nothing, never an image build or a simulation. A line
// naming -profile-store is dropped: resolving it creates the directory.
func FuzzFlagsResolve(f *testing.F) {
	for _, args := range cliparityArgs {
		f.Add(strings.Join(strings.Fields(args), "\x00"))
	}
	f.Fuzz(func(t *testing.T, argv string) {
		if strings.Contains(argv, "profile-store") {
			t.Skip("-profile-store creates a directory")
		}
		var args []string
		if argv != "" {
			args = strings.Split(argv, "\x00")
		}
		for _, cmd := range []expt.Command{expt.Oltpgen, expt.Pixie, expt.Oltpbench, expt.Layoutlab} {
			fl, err := parseFlags(cmd, args...)
			if err == nil && fl.Opt.Workload == nil {
				t.Fatalf("command %d accepted %q with no workload", cmd, args)
			}
		}
	})
}
