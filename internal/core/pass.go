package core

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"

	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// LayoutState is the shared state a pass pipeline threads through its passes.
// Each pass reads what earlier passes produced and fills in the next stage:
// chains feed unit splitting, units feed ordering, the order feeds
// materialization. Fields a pass needs that no earlier pass produced are
// filled with the baseline defaults (source chains, whole-procedure units,
// original link order), so short pipelines like "chain,porder:ph" work
// without spelling out every stage.
type LayoutState struct {
	Prog *program.Program
	Prof *profile.Profile

	// Chains are the per-procedure block chains (nil until a chaining pass or
	// a consumer's EnsureChains installs the source-order chains).
	Chains map[program.ProcID][]Chain

	// Units are the placement units cut from the chains (nil until a split
	// pass or EnsureUnits runs).
	Units []Unit

	// UnitOrder is the placement order of Units, as indexes into Units (nil
	// until an ordering pass or EnsureOrder runs).
	UnitOrder []int

	// AlignWords pads unit starts at materialization; 0 means
	// program.DefaultAlignWords.
	AlignWords int

	// GapBefore carries explicit address-space gaps for Materialize (the CFA
	// pass plans these).
	GapBefore map[program.BlockID]uint64

	// Report accumulates the optimizer report across passes.
	Report *Report

	// Layout is the materialized result; set by the materialize pass.
	Layout *program.Layout

	// KindRoots seed the txfuse pass with one fused unit per transaction
	// kind (nil lets txfuse derive roots from the profile's call graph).
	KindRoots []KindRoot

	// Cloner, if non-nil, lets txfuse clone shared procedures into fused
	// units (image-aware runs install the specialized image here); nil
	// disables cloning.
	Cloner ProcCloner

	// fused guards against running txfuse twice over one state.
	fused bool

	// chained, if non-nil, is the chain pass's precomputed result
	// (RunChained); the pass installs a shallow clone of it.
	chained Chaining
}

// EnsureChains installs the source-order chains for every procedure if no
// chaining pass has run yet.
func (st *LayoutState) EnsureChains() {
	if st.Chains != nil {
		return
	}
	st.Chains = make(map[program.ProcID][]Chain, len(st.Prog.Procs))
	for _, pr := range st.Prog.Procs {
		st.Chains[pr.ID] = SourceChains(pr)
	}
}

// EnsureUnits cuts chains into whole-procedure units (SplitNone) if no split
// pass has run yet, and records the chain/unit tallies in the report.
func (st *LayoutState) EnsureUnits() {
	if st.Units != nil {
		return
	}
	st.buildUnits(SplitNone, 1)
}

func (st *LayoutState) buildUnits(mode SplitMode, hotMin uint64) {
	st.EnsureChains()
	for _, pr := range st.Prog.Procs {
		st.Report.Chains += len(st.Chains[pr.ID])
	}
	st.Units = BuildUnitsHot(st.Prog, st.Prof, st.Chains, mode, hotMin)
	st.countUnits()
}

// countUnits refreshes the unit tallies of the report from st.Units.
func (st *LayoutState) countUnits() {
	st.Report.Units = len(st.Units)
	st.Report.HotUnits = 0
	st.Report.HotWords = 0
	for _, u := range st.Units {
		if u.Hot {
			st.Report.HotUnits++
			st.Report.HotWords += unitWords(st.Prog, u)
		}
	}
}

// EnsureOrder installs the original link order (procedures in link order,
// units in pre-ordering sequence) if no ordering pass has run yet.
func (st *LayoutState) EnsureOrder() {
	if st.UnitOrder != nil {
		return
	}
	st.EnsureUnits()
	st.UnitOrder = OriginalOrder(st.Units)
}

// OriginalOrder returns the permutation placing units in the original
// binary's link order: by procedure, then by pre-ordering sequence.
func OriginalOrder(units []Unit) []int {
	order := make([]int, len(units))
	for i := range units {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := units[order[a]], units[order[b]]
		if ua.Proc != ub.Proc {
			return ua.Proc < ub.Proc
		}
		return ua.Seq < ub.Seq
	})
	return order
}

// Pass is one stage of a layout pipeline. Name returns the canonical
// "name" or "name:arg" spec that ParsePipeline maps back to this pass.
type Pass interface {
	Name() string
	Run(*LayoutState) error
}

// PassFactory builds a pass from the argument following "name:" in a
// pipeline spec (empty when the spec is the bare name).
type PassFactory func(arg string) (Pass, error)

// passEntry is one registry slot: the factory plus the one-line
// description PassDocs renders.
type passEntry struct {
	factory PassFactory
	doc     string
}

var (
	passMu       sync.RWMutex
	passRegistry = map[string]passEntry{}
)

// RegisterPass adds a pass factory to the registry under the given base name
// (the part of a spec before the optional ":arg"). Registering a name twice
// is an error, as is a name containing the spec separators.
func RegisterPass(name string, f PassFactory) error {
	return RegisterPassDoc(name, "", f)
}

// RegisterPassDoc registers a pass factory together with a one-line
// description, shown by PassDocs and the spike -list-passes listing.
func RegisterPassDoc(name, doc string, f PassFactory) error {
	if name == "" || strings.ContainsAny(name, ":,") || f == nil {
		return fmt.Errorf("core: invalid pass registration %q", name)
	}
	passMu.Lock()
	defer passMu.Unlock()
	if _, dup := passRegistry[name]; dup {
		return fmt.Errorf("core: pass %q already registered", name)
	}
	passRegistry[name] = passEntry{factory: f, doc: doc}
	return nil
}

// RegisteredPasses lists the registered base pass names, sorted.
func RegisteredPasses() []string {
	passMu.RLock()
	defer passMu.RUnlock()
	names := make([]string, 0, len(passRegistry))
	for n := range passRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PassDoc describes one registered pass for listings.
type PassDoc struct {
	Name string
	Doc  string
}

// PassDocs returns every registered pass sorted by name with its one-line
// description, so pipeline specs are discoverable (spike -list-passes).
// Passes registered without a description report "(no description)".
func PassDocs() []PassDoc {
	passMu.RLock()
	defer passMu.RUnlock()
	docs := make([]PassDoc, 0, len(passRegistry))
	for n, e := range passRegistry {
		doc := e.doc
		if doc == "" {
			doc = "(no description)"
		}
		docs = append(docs, PassDoc{Name: n, Doc: doc})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return docs
}

// UnknownPassError reports a pipeline spec naming a pass that is not in the
// registry, carrying the valid names so callers fail fast with the full menu
// (mirroring layoutlab's unknown -table error).
type UnknownPassError struct {
	Pass  string   // the unrecognized base pass name
	Valid []string // the registered base names, sorted
}

func (e *UnknownPassError) Error() string {
	return fmt.Sprintf("core: unknown pass %q (valid passes: %s)",
		e.Pass, strings.Join(e.Valid, ", "))
}

// NewPass builds one pass from a "name" or "name:arg" spec. An unrecognized
// base name yields an *UnknownPassError listing the registered passes.
func NewPass(spec string) (Pass, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	name = strings.TrimSpace(name)
	passMu.RLock()
	e, ok := passRegistry[name]
	passMu.RUnlock()
	if !ok {
		return nil, &UnknownPassError{Pass: name, Valid: RegisteredPasses()}
	}
	p, err := e.factory(strings.TrimSpace(arg))
	if err != nil {
		return nil, fmt.Errorf("core: pass %q: %w", spec, err)
	}
	return p, nil
}

// Pipeline is an ordered list of layout passes.
type Pipeline []Pass

// ParsePipeline parses a comma-separated pass spec such as
// "chain,split:fine,porder:ph" into a pipeline. A spec need not end in
// "materialize": Run materializes implicitly when the pipeline finishes
// without producing a layout, so terse specs and custom materializing
// passes both work.
func ParsePipeline(spec string) (Pipeline, error) {
	var pl Pipeline
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		p, err := NewPass(field)
		if err != nil {
			return nil, err
		}
		pl = append(pl, p)
	}
	if len(pl) == 0 {
		return nil, fmt.Errorf("core: empty pipeline spec %q", spec)
	}
	return pl, nil
}

// String renders the pipeline as a spec that ParsePipeline accepts.
func (pl Pipeline) String() string {
	names := make([]string, len(pl))
	for i, p := range pl {
		names[i] = p.Name()
	}
	return strings.Join(names, ",")
}

// Run executes the pipeline over the program and profile and returns the
// materialized layout and report. A materialize pass is run implicitly if
// the pipeline ends without one. Edge weights are estimated first when the
// profile is sampling-based, the way Spike does. A profile that counts blocks
// the program does not have is an error, not a layout.
func (pl Pipeline) Run(p *program.Program, pf *profile.Profile) (*program.Layout, *Report, error) {
	return pl.RunChained(p, pf, nil, nil, nil)
}

// RunChained is the image-aware pipeline entry. It executes the pipeline
// with transaction-kind roots and an optional procedure cloner threaded
// through the state for the txfuse pass: the cloner must mutate the same
// program p (codegen's specialized images do), and passes other than txfuse
// ignore both. A non-nil ch is the chain pass computed ahead: a chain pass
// installs a shallow clone of ch instead of chaining every procedure again,
// so a caller laying out one program under one profile many times chains
// once. ch must be ChainProgram's result over p (or an unmodified copy of
// it) and a profile equal to pf with its edges ensured; nil chains as usual.
func (pl Pipeline) RunChained(p *program.Program, pf *profile.Profile, ch Chaining, roots []KindRoot, cl ProcCloner) (*program.Layout, *Report, error) {
	if err := pf.CheckProgram(p); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	pf.EnsureEdges(p)
	st := &LayoutState{Prog: p, Prof: pf, Report: &Report{}, KindRoots: roots, Cloner: cl, chained: ch}
	for _, pass := range pl {
		if err := pass.Run(st); err != nil {
			return nil, nil, fmt.Errorf("core: pass %s: %w", pass.Name(), err)
		}
	}
	if st.Layout == nil {
		if err := (materializePass{}).Run(st); err != nil {
			return nil, nil, fmt.Errorf("core: pass materialize: %w", err)
		}
	}
	return st.Layout, st.Report, nil
}

// --- built-in passes -------------------------------------------------------

// chainPass runs greedy basic-block chaining on every non-cold procedure.
type chainPass struct{}

func (chainPass) Name() string { return "chain" }

func (chainPass) Run(st *LayoutState) error {
	if st.Units != nil {
		return fmt.Errorf("chain must run before units are split")
	}
	if st.chained != nil {
		st.Chains = maps.Clone(st.chained)
	} else {
		st.Chains = ChainProgram(st.Prog, st.Prof)
	}
	return nil
}

// splitPass cuts chains into placement units. hotMin is the hot/cold
// partition threshold of SplitHotCold (a block is hot when its execution
// count reaches hotMin); 1 is the classic executed-at-all partition.
type splitPass struct {
	mode   SplitMode
	hotMin uint64
}

func (p splitPass) Name() string {
	if p.mode == SplitHotCold && p.hotMin > 1 {
		return fmt.Sprintf("split:hotcold@%d", p.hotMin)
	}
	return "split:" + p.mode.String()
}

func (p splitPass) Run(st *LayoutState) error {
	if st.Units != nil {
		return fmt.Errorf("units already split")
	}
	hotMin := p.hotMin
	if hotMin == 0 {
		hotMin = 1
	}
	st.buildUnits(p.mode, hotMin)
	return nil
}

// porderPass orders the placement units: Pettis–Hansen ordering of the hot
// units with the cold ones appended in link order (ph), or the original
// binary's link order throughout.
type porderPass struct{ ph bool }

func (p porderPass) Name() string {
	if p.ph {
		return "porder:ph"
	}
	return "porder:orig"
}

func (p porderPass) Run(st *LayoutState) error {
	if st.UnitOrder != nil {
		return fmt.Errorf("units already ordered")
	}
	st.EnsureUnits()
	if !p.ph {
		st.UnitOrder = OriginalOrder(st.Units)
		return nil
	}
	hot := PettisHansen(st.Prog, st.Prof, st.Units)
	seen := make([]bool, len(st.Units))
	for _, i := range hot {
		seen[i] = true
	}
	order := append([]int(nil), hot...)
	for _, i := range OriginalOrder(st.Units) {
		if !seen[i] {
			order = append(order, i)
		}
	}
	st.UnitOrder = order
	return nil
}

// cfaPass plans the conflict-free-area gaps over the ordered units.
type cfaPass struct{ opts CFAOptions }

func (p cfaPass) Name() string {
	return fmt.Sprintf("cfa:%d/%d", p.opts.CacheBytes, p.opts.ReservedBytes)
}

func (p cfaPass) Run(st *LayoutState) error {
	if st.Layout != nil {
		return fmt.Errorf("cfa must run before materialize")
	}
	st.EnsureOrder()
	gaps, reserved := planCFA(st.Prog, st.Units, st.UnitOrder, p.opts)
	st.GapBefore = gaps
	st.Report.CFAReservedWords = reserved
	return nil
}

// alignPass sets the unit-start alignment used at materialization.
type alignPass struct{ words int }

func (p alignPass) Name() string { return "align:" + strconv.Itoa(p.words) }

func (p alignPass) Run(st *LayoutState) error {
	if st.Layout != nil {
		return fmt.Errorf("align must run before materialize")
	}
	if p.words <= 0 {
		return fmt.Errorf("alignment must be positive, got %d", p.words)
	}
	st.AlignWords = p.words
	return nil
}

// materializePass flattens the ordered units into a block order and derives
// addresses, branch materialization and padding.
type materializePass struct{}

func (materializePass) Name() string { return "materialize" }

func (materializePass) Run(st *LayoutState) error {
	if st.Layout != nil {
		return fmt.Errorf("layout already materialized")
	}
	st.EnsureOrder()
	order := make([]program.BlockID, 0, st.Prog.NumBlocks())
	alignAt := make(map[program.BlockID]bool, len(st.Units))
	for _, ui := range st.UnitOrder {
		u := st.Units[ui]
		if len(u.Blocks) == 0 {
			continue
		}
		alignAt[u.Blocks[0]] = true
		order = append(order, u.Blocks...)
	}
	align := st.AlignWords
	if align == 0 {
		align = program.DefaultAlignWords
	}
	l, err := program.Materialize(st.Prog, order, program.MaterializeOptions{
		AlignWords: align,
		AlignAt:    alignAt,
		FallFirst: func(b *program.Block) bool {
			return st.Prof.Count(b.Fall) > st.Prof.Count(b.Taken)
		},
		GapBefore: st.GapBefore,
	})
	if err != nil {
		return err
	}
	st.Layout = l
	st.Report.LongBranches = l.LongBranches
	st.Report.PadWords = l.PadWords
	return nil
}

func init() {
	mustRegister := func(name, doc string, f PassFactory) {
		if err := RegisterPassDoc(name, doc, f); err != nil {
			panic(err)
		}
	}
	mustRegister("chain", "greedy basic-block chaining within each procedure (falls through hot edges)", func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("takes no argument, got %q", arg)
		}
		return chainPass{}, nil
	})
	mustRegister("split", "cut chains into placement units: none (whole procedure), fine (per chain), hotcold (hot/cold halves; hotcold@N counts a block hot at N+ executions)", func(arg string) (Pass, error) {
		switch arg {
		case "", "none":
			return splitPass{mode: SplitNone}, nil
		case "fine":
			return splitPass{mode: SplitFine}, nil
		case "hotcold":
			return splitPass{mode: SplitHotCold}, nil
		}
		if rest, ok := strings.CutPrefix(arg, "hotcold@"); ok {
			n, err := strconv.ParseUint(rest, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("hotcold@N needs a positive execution-count threshold, got %q", arg)
			}
			return splitPass{mode: SplitHotCold, hotMin: n}, nil
		}
		return nil, fmt.Errorf("unknown split mode %q (none|fine|hotcold|hotcold@N)", arg)
	})
	mustRegister("porder", "order placement units: ph (Pettis\u2013Hansen call-graph ordering) or orig (link order)", func(arg string) (Pass, error) {
		switch arg {
		case "", "ph":
			return porderPass{ph: true}, nil
		case "orig", "original":
			return porderPass{}, nil
		}
		return nil, fmt.Errorf("unknown order mode %q (ph|orig)", arg)
	})
	mustRegister("cfa", "reserve a conflict-free instruction-cache area for the hottest units (cachebytes/reservedbytes)", func(arg string) (Pass, error) {
		o := CFAOptions{CacheBytes: 64 << 10, ReservedBytes: 16 << 10}
		if arg != "" {
			cache, reserved, _ := strings.Cut(arg, "/")
			var err1, err2 error
			o.CacheBytes, err1 = strconv.Atoi(cache)
			o.ReservedBytes, err2 = strconv.Atoi(reserved)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("want cachebytes/reservedbytes, got %q", arg)
			}
		}
		if o.CacheBytes <= 0 || o.ReservedBytes <= 0 || o.ReservedBytes >= o.CacheBytes {
			return nil, fmt.Errorf("reserved area %d must be positive and smaller than the cache %d",
				o.ReservedBytes, o.CacheBytes)
		}
		return cfaPass{o}, nil
	})
	mustRegister("align", "set the unit-start alignment in words used at materialization (default "+strconv.Itoa(program.DefaultAlignWords)+")", func(arg string) (Pass, error) {
		words := program.DefaultAlignWords
		if arg != "" {
			var err error
			if words, err = strconv.Atoi(arg); err != nil {
				return nil, fmt.Errorf("want a word count, got %q", arg)
			}
		}
		if words <= 0 {
			return nil, fmt.Errorf("alignment must be positive, got %d", words)
		}
		return alignPass{words}, nil
	})
	mustRegister("materialize", "flatten the ordered units into block addresses, branch materialization and padding", func(arg string) (Pass, error) {
		if arg != "" {
			return nil, fmt.Errorf("takes no argument, got %q", arg)
		}
		return materializePass{}, nil
	})
	mustRegister("ipchain", "inter-procedural call chaining: concatenate caller/callee units along hot call edges (:N merges only edges executed N+ times)", func(arg string) (Pass, error) {
		if arg == "" {
			return ipchainPass{}, nil
		}
		n, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("want a minimum call-edge weight, got %q", arg)
		}
		return ipchainPass{minWeight: n}, nil
	})
	mustRegister("txfuse", "transaction-program fusion: one straight-line unit per transaction kind, cloning shared code within a growth budget (:N percent, default 10)", func(arg string) (Pass, error) {
		pct := DefaultFuseBudgetPct
		if arg != "" {
			var err error
			if pct, err = strconv.Atoi(arg); err != nil {
				return nil, fmt.Errorf("want a growth budget percentage, got %q", arg)
			}
			if pct < 0 || pct > 100 {
				return nil, fmt.Errorf("growth budget %d%% outside [0,100]", pct)
			}
		}
		return txfusePass{budgetPct: pct}, nil
	})
}
