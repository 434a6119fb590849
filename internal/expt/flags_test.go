package expt_test

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

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
		{"oltpbench", expt.Oltpbench, "cold cpus drift fastpath gc hotfrac layout libscale opt procs profile-store quick readpct reopt runseed seed shards stall train-shards train-txns train-workload txns warmup workload zipf"},
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

func wantGC(mode machine.GroupCommit) func(*testing.T, *expt.Flags) {
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
		{"oltpbench quick transplant", expt.Oltpbench, "-quick -workload tpcb -train-workload ycsb -gc p99 -shards 2 -fastpath -opt all", func(t *testing.T, f *expt.Flags) {
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
		// Every group-commit policy lands on the options, in its canonical
		// spelling, and nothing else moves.
		{"oltpbench -gc lands on the options", expt.Oltpbench, "-gc window:060000", func(t *testing.T, f *expt.Flags) {
			want := full
			want.Train.Seed = want.Seed + 7
			want.AutoGroupCommit = "window:60000"
			if !reflect.DeepEqual(f.Opt, want) {
				t.Errorf("got %+v\nwant %+v", f.Opt, want)
			}
		}},
		{"oltpbench -gc percommit", expt.Oltpbench, "-gc percommit", wantGC("percommit")},
		{"oltpbench -gc window:0 is off", expt.Oltpbench, "-gc window:0", wantGC(machine.AutoGCOff)},
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
		// In layoutlab -gc is the shard sweep's group-commit policy (default
		// the p99 tuner) and no other table's.
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
		// The blend pair is resolved at the preset's scale, like -workload.
		{"layoutlab blend pair", expt.Layoutlab, "-table blend -ratios 0,1", func(t *testing.T, f *expt.Flags) {
			upd := *ycsb.New().QuickScale().(*ycsb.Workload)
			upd.Label, upd.ReadPct = "ycsb-upd", 5
			want := expt.BlendSpec{Old: ycsb.New().QuickScale(), New: &upd, Ratios: []float64{0, 1}}
			if !reflect.DeepEqual(f.Blend, want) {
				t.Errorf("blend %+v, want %+v", f.Blend, want)
			}
		}},
		{"layoutlab -full blend pair", expt.Layoutlab, "-table blend -full", func(t *testing.T, f *expt.Flags) {
			if !reflect.DeepEqual(f.Blend.Old, ycsb.New()) || f.Blend.New.Name() != "ycsb-upd" {
				t.Errorf("blend pair %+v / %+v", f.Blend.Old, f.Blend.New)
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
		{expt.Oltpbench, "-fastpath", "-fastpath needs -shards > 1"},
		{expt.Oltpbench, "-fastpath -shards 1", "-fastpath needs -shards > 1"},
		{expt.Oltpbench, "-opt all -layout a.layout", "-opt and -layout conflict"},
		{expt.Oltpbench, "-reopt 100", "-reopt needs -opt"},
		{expt.Oltpbench, "-reopt 100 -opt fusion", "-reopt cannot hot-swap fused"},
		{expt.Oltpbench, "-workload ycsb -readpct 101", "-readpct = 101"},
		{expt.Oltpbench, "-workload ycsb -zipf 1", "-zipf = 1"},
		{expt.Layoutlab, "-hotfrac -0.1", "-hotfrac = -0.1"},
		{expt.Layoutlab, "-cross 101", "-cross = 101"},
		{expt.Layoutlab, "-table shardsweep -gc sometimes", `-gc: unknown group-commit policy "sometimes"`},
		// A malformed policy fails here, not after -opt has trained and
		// optimized: the machine's check would come only then.
		{expt.Oltpbench, "-opt all -gc window:", "-gc: group-commit window"},
		{expt.Oltpbench, "-opt all -gc window:-5", "-gc: group-commit window"},
		{expt.Oltpbench, "-opt all -gc window:x", "-gc: group-commit window"},
		{expt.Oltpbench, "-opt all -gc p95", `-gc: unknown group-commit policy "p95"`},
		{expt.Oltpbench, "-opt all -gc percommit:1", `-gc: unknown group-commit policy "percommit:1"`},
		{expt.Layoutlab, "-table latency -gc window:x", "-gc: group-commit window"},
		// Past their ceilings a window or a stall penalty wraps the clock.
		{expt.Oltpbench, "-quick -shards 2 -txns 50 -warmup 10 -gc window:18446744073709551615", "-gc: group-commit window 18446744073709551615 exceeds the maximum"},
		{expt.Oltpbench, "-quick -shards 2 -txns 50 -warmup 10 -stall 18446744073709551615", "-stall = 18446744073709551615 exceeds the maximum"},
		{expt.Layoutlab, "-table latency -stall 65537", "-stall = 65537 exceeds the maximum"},
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
		// (a matrix of one cell under four labels), a weight the blend
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

// flagCommands are the four commands that share the flag surface.
var flagCommands = map[string]bool{"oltpgen": true, "pixie": true, "oltpbench": true, "layoutlab": true}

// assignment matches a shell variable assignment: NAME=VALUE or NAME=(WORDS).
var assignment = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)=(.*)$`)

// cliparityArgs returns the argument lists scripts/cliparity.sh passes to the
// four commands that share the flag surface: each of its run lines naming
// one of them, at top level and, once per pair line, in the pair function's
// body, with the script's variables, arrays and the pair's arguments
// expanded. A run or pair line it cannot expand fails the test, so a new
// line the parser does not understand cannot silently drop out.
func cliparityArgs(tb testing.TB) [][]string {
	tb.Helper()
	src, err := os.ReadFile("../../scripts/cliparity.sh")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]string
	// runLine records the arguments of a run line naming a flag command.
	runLine := func(line string, vars map[string][]string) error {
		w, err := shellWords(strings.TrimPrefix(line, "run "), vars)
		if err != nil {
			return err
		}
		if len(w) < 2 {
			return errors.New("run needs an output name and a command")
		}
		if flagCommands[w[1]] {
			out = append(out, w[2:])
		}
		return nil
	}
	vars := map[string][]string{}
	var fn string     // the function whose body the line is in; "" at top level
	var pair []string // the pair function's body
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		fail := func(err error) { tb.Fatalf("scripts/cliparity.sh:%d: %s: %v", i+1, line, err) }
		switch {
		case fn != "":
			if line == "}" {
				fn = ""
			} else if fn == "pair" {
				pair = append(pair, line)
			}
		case strings.HasSuffix(line, "() {"):
			fn = strings.TrimSuffix(line, "() {")
		case strings.HasPrefix(line, "run "):
			if err := runLine(line, vars); err != nil {
				fail(err)
			}
		case strings.HasPrefix(line, "pair "):
			args, err := shellWords(strings.TrimPrefix(line, "pair "), vars)
			if err != nil {
				fail(err)
			}
			if err := runPair(pair, args, vars, runLine); err != nil {
				fail(err)
			}
		default:
			// An assignment the words cannot express ($(...), ${1:-x}) leaves
			// its variable unknown: a run line naming it fails.
			if m := assignment.FindStringSubmatch(line); m != nil {
				val, array := strings.CutPrefix(m[2], "(")
				if array {
					val, array = strings.CutSuffix(val, ")")
				}
				w, err := shellWords(val, vars)
				if err == nil && (array || len(w) == 1) {
					vars[m[1]] = w
				} else {
					delete(vars, m[1])
				}
			}
		}
	}
	if len(out) == 0 {
		tb.Fatal("scripts/cliparity.sh runs none of the flag commands")
	}
	return out
}

// runPair expands the pair function's body for one pair line: its local
// assignments of the positional arguments, its shift and its run lines.
func runPair(body, args []string, global map[string][]string, runLine func(string, map[string][]string) error) error {
	vars := maps.Clone(global)
	setArgs := func(a []string) {
		vars["@"] = a
		for i := 1; i <= 9; i++ {
			if i <= len(a) {
				vars[strconv.Itoa(i)] = a[i-1 : i]
			} else {
				delete(vars, strconv.Itoa(i))
			}
		}
	}
	setArgs(args)
	for _, line := range body {
		switch {
		case strings.HasPrefix(line, "local "):
			w, err := shellWords(strings.TrimPrefix(line, "local "), vars)
			if err != nil {
				return err
			}
			for _, a := range w {
				name, val, ok := strings.Cut(a, "=")
				if !ok {
					return fmt.Errorf("local %q assigns nothing", a)
				}
				vars[name] = []string{val}
			}
		case strings.HasPrefix(line, "shift "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "shift "))
			if err != nil || n > len(vars["@"]) {
				return fmt.Errorf("%s: bad shift", line)
			}
			setArgs(vars["@"][n:])
		case strings.HasPrefix(line, "run "):
			if err := runLine(line, vars); err != nil {
				return fmt.Errorf("pair body %s: %w", line, err)
			}
		}
	}
	return nil
}

// shellWords splits a line of shell words the way bash would, for the subset
// the script's command lines use: blanks separate words, double quotes group
// them, a # starting a word comments the rest out, and $NAME, ${NAME}, $1
// and (as a whole word) "${NAME[@]}" and "$@" expand from vars. Anything
// else that means something to the shell is an error.
func shellWords(s string, vars map[string][]string) ([]string, error) {
	var words []string
	var parts [][]string // the current word: literal and expanded pieces
	spread := false      // the current word is one array expansion, so far
	started, quoted := false, false
	flush := func() error {
		if !started {
			return nil
		}
		if spread && len(parts) == 1 {
			words = append(words, parts[0]...)
		} else {
			var b strings.Builder
			for _, p := range parts {
				if len(p) != 1 {
					return fmt.Errorf("an array expansion of %d words inside a word", len(p))
				}
				b.WriteString(p[0])
			}
			words = append(words, b.String())
		}
		parts, spread, started = nil, false, false
		return nil
	}
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"':
			quoted, started = !quoted, true
			i++
		case !quoted && (c == ' ' || c == '\t'):
			if err := flush(); err != nil {
				return nil, err
			}
			i++
		case !quoted && c == '#' && !started:
			i = len(s)
		case c == '$':
			name, n, isArray := varRef(s[i:])
			if n == 0 {
				return nil, fmt.Errorf("unsupported expansion at %q", s[i:])
			}
			val, ok := vars[name]
			if !ok {
				return nil, fmt.Errorf("unknown variable %q", name)
			}
			if !isArray && len(val) != 1 {
				return nil, fmt.Errorf("array %q used as a scalar", name)
			}
			if !quoted && len(val) == 1 && strings.ContainsAny(val[0], " \t") {
				return nil, fmt.Errorf("unquoted %q would split", name)
			}
			spread = isArray && len(parts) == 0
			parts = append(parts, val)
			started = true
			i += n
		case strings.IndexByte("\\`", c) >= 0, !quoted && strings.IndexByte("'|&;<>(){}*?[]", c) >= 0:
			return nil, fmt.Errorf("unsupported shell syntax %q", c)
		default:
			parts = append(parts, []string{string(c)})
			spread, started = false, true
			i++
		}
	}
	if quoted {
		return nil, errors.New("unclosed quote")
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return words, nil
}

// varRef reads the variable reference at the start of s ($NAME, ${NAME},
// ${NAME[@]}, $@ or $1): the variable's name, the reference's length in
// bytes (0 for one shellWords does not read) and whether it expands every
// element of an array.
func varRef(s string) (name string, n int, array bool) {
	ident := func(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
	switch {
	case strings.HasPrefix(s, "$@"):
		return "@", 2, true
	case strings.HasPrefix(s, "${"):
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return "", 0, false
		}
		inner := s[2:end]
		name, array = strings.CutSuffix(inner, "[@]")
		if name == "" || strings.IndexFunc(name, func(r rune) bool { return !ident(r) }) >= 0 {
			return "", 0, false
		}
		return name, end + 1, array
	case len(s) > 1 && s[1] >= '0' && s[1] <= '9':
		return s[1:2], 2, false
	}
	end := 1
	for end < len(s) && ident(rune(s[end])) {
		end++
	}
	if end == 1 {
		return "", 0, false
	}
	return s[1:end], end, false
}

// TestShellWords: the subset of shell words cliparityArgs reads, and the
// syntax it refuses rather than misread.
func TestShellWords(t *testing.T) {
	vars := map[string][]string{"a": {"-x", "1"}, "s": {"v"}, "e": {}, "1": {"p"}}
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{`run  x "${a[@]}" -y "$s.layout" ${s} # note`, []string{"run", "x", "-x", "1", "-y", "v.layout", "v"}},
		{`"" "${e[@]}" $1`, []string{"", "p"}},
	} {
		if got, err := shellWords(tc.in, vars); err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("shellWords(%s) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{`$(date)`, `${1:-x}`, `"open`, `a | b`, `x "${a[@]}y"`, `$a`, `$nope`, `'q'`} {
		if got, err := shellWords(in, vars); err == nil {
			t.Errorf("shellWords(%s) = %q, want an error", in, got)
		}
	}
}

// TestCliparityArgsCoverTheScript: the parsed command lines are one per run
// line of a flag command and two per pair line (the pair function's offline
// and in-process oltpbench runs), and they hold the lines a hand-kept copy
// once missed.
func TestCliparityArgsCoverTheScript(t *testing.T) {
	src, err := os.ReadFile("../../scripts/cliparity.sh")
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`(?m)^run \S+ (oltpgen|pixie|oltpbench|layoutlab)\b`).FindAll(src, -1)
	pairs := regexp.MustCompile(`(?m)^pair `).FindAll(src, -1)
	args := cliparityArgs(t)
	if want := len(runs) + 2*len(pairs); len(args) != want {
		t.Fatalf("%d command lines parsed, want %d (%d run lines, %d pair lines)", len(args), want, len(runs), len(pairs))
	}
	lines := make([]string, len(args))
	for i, a := range args {
		lines[i] = strings.Join(a, " ")
	}
	for _, want := range []string{
		"-workload ordere -quick -shards 4 -txns 120 -warmup 20 -gc window:60000",
		"-workload tpcb -quick -shards 2 -txns 120 -warmup 30 -gc percommit",
		"-workload ycsb -quick -txns 200 -warmup 20 -cpus 1 -procs 4 -train-txns 200 -opt all -reopt 50 -stall 40 -profile-store pgostore-ob",
		"-workload ycsb -quick -txns 200 -warmup 40 -opt all -profile-store pgostore-mix -readpct 50",
		"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -layout par-align8.layout",
		"-quick -libscale 0.3 -cold 400000 -cpus 2 -stall 40 -opt chain,split:fine,porder:ph,align:8,materialize -train-txns 300",
		"",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("no parsed command line %q", want)
		}
	}
}

// FuzzFlagsResolve: any command line (arguments separated by NUL, which no
// real argument holds) given to any of the four commands parses and resolves
// to an error or to a run description with a workload — never a panic, and,
// Resolve building nothing, never an image build or a simulation. A line
// naming -profile-store is dropped, and is no seed: resolving it creates the
// directory.
func FuzzFlagsResolve(f *testing.F) {
	for _, args := range cliparityArgs(f) {
		if !slices.Contains(args, "-profile-store") {
			f.Add(strings.Join(args, "\x00"))
		}
	}
	for _, gc := range []string{"window:60000", "percommit", "window:0", "window:-5", "p95", "percommit:1", "window:", "window:18446744073709551615"} {
		f.Add("-opt\x00all\x00-gc\x00" + gc)
	}
	f.Add("-quick\x00-shards\x002\x00-stall\x0018446744073709551615")
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
