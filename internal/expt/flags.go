package expt

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/pstore"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// Command names one of the four commands that describe a run through
// Options. It selects the flags BindFlags registers — each command keeps
// exactly its own set — and the command's seed convention.
type Command int

const (
	Oltpgen Command = 1 << iota
	Pixie
	Oltpbench
	Layoutlab
)

// tables lists the values layoutlab's -table accepts, sorted.
var tables = []string{"blend", "datalayout", "latency", "robustness", "search", "shardsweep"}

// Flags is a command line parsed into a run description: BindFlags
// registers a command's flags against it, and Resolve — called once after
// flag parsing, before any image builds — checks every range and conflict,
// looks the workloads up and fills Opt. The remaining exported fields are
// what the commands read besides Opt.
type Flags struct {
	// Opt is the run description: the options of the session the command
	// measures (or, for pixie, trains) through. BindFlags preloads it with
	// DefaultOptions — the flag defaults of oltpgen, pixie and oltpbench —
	// or, for layoutlab, QuickOptions (DefaultOptions under -full).
	Opt Options
	// Extra is the -train-workload when it differs from -workload: its
	// models join the app image, so a profile of one maps onto a run of
	// the other.
	Extra []workload.Workload

	// Layout is the layout name the run evaluates: oltpbench's -opt (empty
	// is the baseline) and layoutlab's -layout for the extension tables.
	Layout string
	// LayoutFile is oltpbench's -layout: a layout file written by spike.
	LayoutFile string
	// Reopt and Drift are oltpbench's online re-optimization period and
	// drift threshold.
	Reopt int
	Drift float64

	// Table is layoutlab's -table; Matrix and ShardList are the parsed
	// -matrix (robustness, latency and search only) and -shardlist; Sweep,
	// DataLayout and Blend are the shardsweep, datalayout and blend specs
	// the flags describe.
	Table      string
	Matrix     []workload.Workload
	ShardList  []int
	Sweep      ShardSweepSpec
	DataLayout DataLayoutSpec
	Blend      BlendSpec

	cmd Command
	// over holds layoutlab's overrides of its -quick/-full preset; a zero
	// field keeps the preset's value.
	over      Options
	imageSeed int64

	quick, full          bool
	workload, trainWl    string
	matrix, shardlist    string
	ratios, gc, storeDir string
	shards               []int
	readPct, cross       int
	zipf, hotFrac        float64
}

// BindFlags registers cmd's flags on fs and returns the Flags they fill.
// Every flag of the shared surface is declared here and nowhere else; a
// command adds only the flags that say where its output goes.
func BindFlags(fs *flag.FlagSet, cmd Command) *Flags {
	f := &Flags{cmd: cmd, Opt: DefaultOptions(), readPct: -1}
	has := func(cs Command) bool { return cmd&cs != 0 }
	// o is where a flag that maps onto one Options field writes. layoutlab's
	// flags are overrides of a preset chosen after parsing, so they land in
	// f.over and default to zero.
	o := &f.Opt
	if cmd == Layoutlab {
		f.Opt = QuickOptions()
		f.Sweep.FastPath = true
		o = &f.over
	}

	// -seed is the image seed where -runseed drives the run, and both the
	// image and the run seed in layoutlab (Resolve derives the train seeds).
	f.imageSeed = f.Opt.Seed
	seed := &f.imageSeed
	if cmd == Layoutlab {
		seed = &f.over.Seed
	}
	fs.Int64Var(seed, "seed", *seed, "image generation seed (layoutlab: image and workload seed; 0 keeps the preset)")
	if has(Pixie | Oltpbench) {
		runSeed := &o.Seed
		if cmd == Pixie {
			runSeed = &o.Train.Seed
		}
		fs.Int64Var(runSeed, "runseed", *runSeed, "workload seed of the run (oltpbench trains -opt on runseed+7)")
	}
	if has(Pixie | Oltpbench | Layoutlab) {
		txns := &o.Transactions
		if cmd == Pixie {
			txns = &o.Train.Txns
		}
		fs.IntVar(txns, "txns", *txns, "measured (pixie: profiled) transactions")
		fs.IntVar(&o.CPUs, "cpus", o.CPUs, "processors")
		fs.Func("shards", "partitioned database engines behind the shard router; for layoutlab -table shardsweep, a comma-separated list to sweep (default 1,2,4,8,16,32,64)",
			func(s string) (err error) { f.shards, err = parseShards(s); return err })
		fs.BoolVar(&f.quick, "quick", false, "use the workload's quick scale (layoutlab: the quick preset, its default; conflicts with -full)")
	}
	if has(Pixie | Oltpbench) {
		fs.IntVar(&o.WarmupTxns, "warmup", o.WarmupTxns, "warmup transactions")
		fs.IntVar(&o.Train.Shards, "train-shards", 0, "shard count of the profiling run (default: -shards)")
	}
	if has(Oltpgen | Pixie | Oltpbench) {
		fs.Float64Var(&o.LibScale, "libscale", o.LibScale, "library size multiplier")
		fs.IntVar(&o.ColdWords, "cold", o.ColdWords, "cold code words in the app image")
		fs.StringVar(&f.trainWl, "train-workload", "", "workload the profiling run executes (default: -workload); its models join the app image")
	}
	fs.StringVar(&f.workload, "workload", "tpcb", fmt.Sprintf("workload to run %v", workload.Names()))
	if cmd == Oltpgen {
		fs.IntVar(&o.KernColdWords, "kcold", o.KernColdWords, "cold code words in the kernel image")
	}
	if has(Oltpbench | Layoutlab) {
		fs.IntVar(&f.readPct, "readpct", f.readPct, "ycsb: point-read share of the mix in [0, 100]; 0 is a valid pure-update mix (negative = workload default)")
		fs.Float64Var(&f.zipf, "zipf", 0, "ycsb: Zipfian key-skew theta in [0, 1), 0 = uniform; for -table datalayout, the skewed regime's theta (0 selects 0.9)")
		fs.Float64Var(&f.hotFrac, "hotfrac", 0, "tpcb: hot-account fraction in [0, 1), 0 = uniform; for -table datalayout, the skewed regime's fraction (0 selects 0.1)")
		fs.Uint64Var(&o.FetchStallPenaltyInstr, "stall", 0, "instruction-times of stall charged per L1 icache miss on the fetch clock (0 = pure fetch-bandwidth clock)")
		fs.StringVar(&f.storeDir, "profile-store", "", "directory of the persistent profile store; training runs already in the store are loaded instead of re-run")
		fastPath, layout := &o.PredictFastPath, &f.LayoutFile
		f.gc = "off"
		if cmd == Layoutlab {
			fastPath, layout = &f.Sweep.FastPath, &f.Layout
			// The shard sweep defaults to the tail-aware tuner: high shard
			// counts starve fixed windows.
			f.Layout, f.gc = "all", "p99"
		}
		fs.BoolVar(fastPath, "fastpath", *fastPath, "the predictive single-shard fast path (needs -shards > 1): predicted-local transactions skip the router and 2PC coordinator; layoutlab -table shardsweep measures it against the routed baseline")
		fs.StringVar(layout, "layout", *layout, "oltpbench: optimized layout file (from spike; default baseline); layoutlab extension tables: pipeline combo to train and evaluate")
		fs.StringVar(&f.gc, "gc", f.gc, "group-commit policy: off (leaders flush on arrival), window:N (leaders wait N instruction-times), percommit (no group commit), flushcount (tune each shard's window for fewest flushes) or p99 (tune it for modeled p99 latency); layoutlab applies it to -table shardsweep only")
	}
	if cmd == Oltpbench {
		fs.IntVar(&o.ProcsPerCPU, "procs", o.ProcsPerCPU, "server processes per CPU")
		fs.StringVar(&f.Layout, "opt", "", "train in-process and optimize with this layout (e.g. all, ipchain, fusion, or a raw pass list) before measuring")
		fs.IntVar(&o.Train.Txns, "train-txns", o.Train.Txns, "profiled transactions of the -opt training run")
		fs.IntVar(&f.Reopt, "reopt", 0, "re-optimize the app layout online every N committed transactions when the kind mix drifts from the training mix (needs -opt; not fusion)")
		fs.Float64Var(&f.Drift, "drift", 0, "L1 kind-mix distance past which -reopt retrains (0 selects the default threshold)")
	}
	if cmd == Layoutlab {
		fs.BoolVar(&f.full, "full", false, "paper-scale run (default is the quick configuration)")
		fs.StringVar(&f.Table, "table", "", "extension table to emit: "+strings.Join(tables, ", "))
		fs.StringVar(&f.matrix, "matrix", "tpcb,ordere,ycsb", "robustness/latency/search: comma-separated workloads to measure")
		fs.StringVar(&f.shardlist, "shardlist", "1,4", "robustness/latency: comma-separated shard counts to measure")
		fs.IntVar(&f.cross, "cross", 0, "override the workload's cross-shard transaction percentage in [1, 100] (0 = workload default, negative disables)")
		fs.StringVar(&f.ratios, "ratios", "", "blend: comma-separated new-mix weights to sweep (default 0,0.25,0.5,0.75,1)")
	}
	return f
}

// Resolve checks the parsed flags and completes the run description. It
// builds no image and runs no simulation, so a bad command line fails in
// milliseconds, naming the flag.
func (f *Flags) Resolve() error {
	switch {
	case f.quick && f.full:
		return errors.New("-quick conflicts with -full")
	case f.Layout != "" && f.LayoutFile != "":
		return errors.New("-opt and -layout conflict: one trains in-process, the other loads a layout file")
	case f.Reopt > 0 && f.Layout == "":
		return errors.New("-reopt needs -opt: online re-optimization retrains with the same combo pipeline")
	case f.Reopt > 0 && f.Layout == "fusion":
		return errors.New("-reopt cannot hot-swap fused layouts: fusion grows the program image, which is fixed once the run starts")
	case f.readPct > 100:
		return fmt.Errorf("-readpct = %d; must be in [0, 100] (negative selects the workload default)", f.readPct)
	case f.zipf < 0 || f.zipf >= 1:
		return fmt.Errorf("-zipf = %v; must be in [0, 1)", f.zipf)
	case f.hotFrac < 0 || f.hotFrac >= 1:
		return fmt.Errorf("-hotfrac = %v; must be in [0, 1)", f.hotFrac)
	case f.cross > 100:
		return fmt.Errorf("-cross = %d; must be in [1, 100] (0 = workload default, negative disables)", f.cross)
	case f.Table != "" && !slices.Contains(tables, f.Table):
		return fmt.Errorf("unknown table %q (valid tables: %s)", f.Table, strings.Join(tables, ", "))
	case len(f.shards) > 1 && f.Table != "shardsweep":
		return errors.New("-shards accepts a list only with layoutlab -table shardsweep")
	}

	o := &f.Opt
	if f.cmd == Layoutlab {
		if f.full {
			*o = DefaultOptions()
		}
		if s := f.over.Seed; s != 0 {
			o.Seed, o.Train.Seed = s, s+7
		}
		if f.over.Transactions != 0 {
			o.Transactions = f.over.Transactions
		}
		if f.over.CPUs != 0 {
			o.CPUs = f.over.CPUs
		}
		o.FetchStallPenaltyInstr = f.over.FetchStallPenaltyInstr
		f.imageSeed = o.Seed
	}
	if f.cmd == Oltpbench {
		o.Train.Seed = o.Seed + 7
	}
	if o.FetchStallPenaltyInstr > machine.MaxFetchStallPenaltyInstr {
		return fmt.Errorf("-stall = %d exceeds the maximum of %d instruction-times per miss", o.FetchStallPenaltyInstr, machine.MaxFetchStallPenaltyInstr)
	}
	if len(f.shards) == 1 {
		o.Shards = f.shards[0]
	}
	if f.cmd == Oltpbench && o.PredictFastPath && o.Shards <= 1 {
		return errors.New("-fastpath needs -shards > 1 (a single engine has no router to skip)")
	}
	gc, err := machine.ParseGroupCommit(f.gc)
	if err != nil {
		return fmt.Errorf("-gc: %w", err)
	}
	if f.cmd == Oltpbench || f.Table == "shardsweep" {
		o.AutoGroupCommit = gc
	}

	if err := f.resolveWorkloads(); err != nil {
		return err
	}
	if f.cmd == Layoutlab {
		if err := f.resolveTables(); err != nil {
			return err
		}
	}
	if f.storeDir != "" {
		store, err := pstore.Open(f.storeDir)
		if err != nil {
			return err
		}
		o.ProfileStore = store
	}
	return nil
}

// resolveWorkloads looks up -workload, -train-workload, (for the tables that
// measure it) -matrix and the blend table's pair at the scale -quick/-full
// select, and applies the mix knobs to the workloads the run measures: each
// knob is set on every one of them that has it and rejected when none does.
func (f *Flags) resolveWorkloads() error {
	quick := f.quick || f.cmd == Layoutlab && !f.full
	lookup := func(name string) (workload.Workload, error) {
		wl, err := workload.New(name)
		if err == nil && quick {
			wl = wl.QuickScale()
		}
		return wl, err
	}
	o := &f.Opt
	var err error
	if o.Workload, err = lookup(f.workload); err != nil {
		return err
	}
	if f.trainWl != "" && f.trainWl != f.workload {
		if o.Train.Workload, err = lookup(f.trainWl); err != nil {
			return err
		}
		f.Extra = []workload.Workload{o.Train.Workload}
	}
	measured := []workload.Workload{o.Workload}
	if f.Table == "robustness" || f.Table == "latency" || f.Table == "search" {
		names := splitList(f.matrix)
		if d, ok := dup(names); ok {
			return fmt.Errorf("-matrix lists workload %q twice", d)
		}
		for _, name := range names {
			wl, err := lookup(name)
			if err != nil {
				return err
			}
			f.Matrix = append(f.Matrix, wl)
		}
		measured = f.Matrix
	}
	if f.Table == "blend" {
		// The drift pair: the key-value store's read-heavy default mix aging
		// into an update-heavy inversion of itself, both at one scale so they
		// describe the same database.
		wl, err := lookup("ycsb")
		if err != nil {
			return err
		}
		upd := *wl.(*ycsb.Workload)
		upd.Label, upd.ReadPct = "ycsb-upd", 5
		f.Blend.Old, f.Blend.New = wl, &upd
	}

	// -zipf and -hotfrac under -table datalayout parameterize the table's
	// skewed regime instead of the workload it starts from.
	zipf, hotFrac := f.zipf, f.hotFrac
	if f.Table == "datalayout" {
		f.DataLayout = DataLayoutSpec{ZipfTheta: zipf, HotAccountFrac: hotFrac}
		zipf, hotFrac = 0, 0
	}
	knobs := []struct {
		flag  string
		given bool
		set   func(workload.Workload) bool
	}{
		{"-readpct", f.readPct >= 0, knob(func(w *ycsb.Workload) { w.ReadPct = f.readPct })},
		{"-zipf", zipf > 0, knob(func(w *ycsb.Workload) { w.ZipfTheta = zipf })},
		{"-hotfrac", hotFrac > 0, knob(func(w *tpcb.Workload) { w.HotAccountFrac = hotFrac })},
		{"-cross", f.cross != 0, func(wl workload.Workload) bool {
			switch w := wl.(type) {
			case *tpcb.Workload:
				w.CrossShardPct = f.cross
			case *ordere.Workload:
				w.CrossShardPct = f.cross
			case *ycsb.Workload:
				w.CrossShardPct = f.cross
			default:
				return false
			}
			return true
		}},
	}
	for _, k := range knobs {
		if !k.given {
			continue
		}
		applied := false
		for _, wl := range measured {
			if k.set(wl) {
				applied = true
			}
		}
		if !applied {
			names := make([]string, len(measured))
			for i, wl := range measured {
				names[i] = wl.Name()
			}
			return fmt.Errorf("%s: no measured workload (%s) has that knob", k.flag, strings.Join(names, ", "))
		}
	}
	return nil
}

// knob adapts a setter of one workload type to any workload: it reports
// whether wl is of that type, and therefore has the knob.
func knob[W workload.Workload](set func(W)) func(workload.Workload) bool {
	return func(wl workload.Workload) bool {
		w, ok := wl.(W)
		if ok {
			set(w)
		}
		return ok
	}
}

// resolveTables parses layoutlab's list flags and fills the shardsweep spec.
func (f *Flags) resolveTables() error {
	var err error
	if f.ShardList, err = parseShards(f.shardlist); err != nil {
		return fmt.Errorf("-shardlist: %w", err)
	}
	for _, part := range splitList(f.ratios) {
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad ratio %q: %w", part, err)
		}
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("-ratios: weight %v outside [0, 1]", r)
		}
		f.Blend.Ratios = append(f.Blend.Ratios, r)
	}
	f.Sweep.Shards = f.shards
	if len(f.shards) == 0 {
		f.Sweep.Shards = []int{1, 2, 4, 8, 16, 32, 64}
	}
	f.Sweep.Layouts = []string{"base"}
	if f.Layout != "base" {
		f.Sweep.Layouts = append(f.Sweep.Layouts, f.Layout)
	}
	return nil
}

// NewSession builds the profile source and a session over it, the split
// every command shares: the source takes the image and training half of
// the options (-seed is the image seed), the session all of them.
func (f *Flags) NewSession() (*Session, error) {
	so := f.Opt
	so.Seed = f.imageSeed
	src, err := NewProfileSource(so, f.Extra...)
	if err != nil {
		return nil, err
	}
	return NewSessionFrom(src, f.Opt)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseShards parses a comma-separated list of distinct shard counts in
// [1, machine.MaxShards].
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", part, err)
		}
		if n < 1 || n > machine.MaxShards {
			return nil, fmt.Errorf("shard count %d outside [1, %d]", n, machine.MaxShards)
		}
		out = append(out, n)
	}
	if d, ok := dup(out); ok {
		return nil, fmt.Errorf("shard count %d listed twice", d)
	}
	return out, nil
}

// dup returns the first entry of xs that repeats an earlier one.
func dup[T comparable](xs []T) (d T, ok bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	return d, false
}
