package expt

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// TrainConfig identifies one training run: which workload was profiled and
// the machine shape it ran under. It is the train-side half of a session's
// configuration — the evaluation half lives in the remaining Options fields —
// so a layout can be trained under one configuration and evaluated under
// another (the profile-drift experiments). Zero fields inherit from the
// evaluating session's options, so the zero TrainConfig means "self-trained":
// same workload, same shard count, same processor count as the evaluation.
type TrainConfig struct {
	// Workload is the transaction mix the profiling run executes; nil uses
	// the session's evaluation workload. A non-nil workload must be covered
	// by the profile source's image (see NewProfileSource).
	Workload workload.Workload
	// Seed drives the profiling run's clients; 0 inherits the session's
	// evaluation seed (DefaultOptions sets a distinct train seed, as the
	// paper trains and evaluates on different runs).
	Seed int64
	// Shards is the partitioned-engine count of the profiling run; 0
	// inherits the session's evaluation shard count.
	Shards int
	// Txns is the profiled committed-transaction count; 0 inherits the
	// session's measured transaction count.
	Txns int
	// CPUs is the profiling run's processor count; 0 inherits.
	CPUs int
	// WarmupTxns commit before profiling begins; 0 inherits.
	WarmupTxns int
}

// dcpiPeriod is the sampling period of the DCPI-style profile every training
// run collects beside its Pixie profiles (the profile-source ablation's
// "dcpi-all" layout is built from it).
const dcpiPeriod = 256

// shardKey normalizes a shard count for specs and memo keys (0 and 1 are the
// same single-engine machine).
func shardKey(shards int) int {
	if shards <= 1 {
		return 1
	}
	return shards
}

// fastPathOn is the one fast-path rule: the predictor runs when it is asked
// for on a sharded machine. A single-shard machine has no router to skip, so
// there the flag has no effect (and shards=1 configs stay bit-identical with
// it set).
func fastPathOn(requested bool, shards int) bool { return requested && shardKey(shards) > 1 }

// Spec renders a fully resolved train config as the canonical memo-key
// string. Two train configs with equal specs share one training run; any
// difference — workload, shard count, seed, length — keys a separate run, so
// mismatched train/eval pairs can never collide in a memo.
func (tc TrainConfig) Spec() string {
	name := "?"
	if tc.Workload != nil {
		name = tc.Workload.Name()
	}
	return fmt.Sprintf("%s/s%d/c%d/seed%d/w%d/x%d",
		name, shardKey(tc.Shards), tc.CPUs, tc.Seed, tc.WarmupTxns, tc.Txns)
}

// trainRun is one memoized training run: the store's own record of it — the
// exact Pixie profiles of the app and kernel, the DCPI-style sampling profile
// over the same run, the observed transaction-kind mix (the drift monitor's
// reference) and the field-access profile the record-layout pass groups hot
// fields from (training always runs the interleaved baseline layout, so the
// profile is layout-independent) — plus the one thing the store does not
// keep.
type trainRun struct {
	*pstore.Entry
	// res is the profiling run's machine result; zero for a run served from
	// the persistent store, which keeps profiles only.
	res machine.Result
}

// ProfileSource owns the built images, their baseline layouts, and memos of
// training runs and optimized layouts keyed by resolved TrainConfig spec.
// It is the portable-profile seam: sessions borrow the source's images, so
// every profile the source trains — under any workload or shard count the
// image covers — is over one shared program, and every layout it builds is
// shared by all sessions of the source (a layout depends only on the
// program, the training profile and the pipeline, never on the evaluation
// config). All methods are safe for concurrent use.
type ProfileSource struct {
	opt       Options
	workloads map[string]workload.Workload // name → workload covered by the image

	appImg   *codegen.Image
	kernImg  *codegen.Image
	baseApp  *program.Layout
	baseKern *program.Layout

	// store, when non-nil, persists training runs across processes
	// (Options.ProfileStore); imageID fingerprints both program images so a
	// stored profile can never be applied to a different build.
	store   *pstore.Store
	imageID string

	trainExec atomic.Uint64 // training runs actually executed (not served by a memo or the store)
	lastHit   atomic.Pointer[pstore.Entry]

	runs   memo[string, *trainRun]       // training runs by resolved train spec
	chains memo[string, core.Chaining]   // the chain pass over the app program, by train spec
	built  memo[layoutKey, *builtLayout] // app and kernel layouts by (train spec, name)
}

// layoutKey identifies a built layout: the resolved train spec it was
// trained from plus the layout (or kernel-layout) name. Baselines carry an
// empty train spec — they depend on no profile.
type layoutKey struct {
	train string
	name  string
}

// builtKey is the memo key of a layout trained under a fully resolved
// config.
func builtKey(tc TrainConfig, name string) layoutKey {
	if name == "base" || name == "kbase" {
		return layoutKey{name: name} // baselines are profile-independent
	}
	return layoutKey{train: tc.Spec(), name: name}
}

// builtLayout is one memoized layout build: the layout, the optimizer's
// report (nil for the baselines) and the image the layout addresses. A
// fusing pipeline clones procedures, so its layout places blocks the shared
// image does not have and measurements must run over the grown copy; keeping
// the image in the same memo value as the layout is what makes the pair
// impossible to mismatch.
type builtLayout struct {
	layout *program.Layout
	report *core.Report
	image  *codegen.Image
}

// NewProfileSource builds the images and baseline layouts for o's workload
// plus any extra workloads whose transaction models should join the app
// image. With extras the image is a union binary: a profile trained while
// running any covered workload maps onto the same program, which is what
// makes train/eval workload mismatch experiments possible. With no extras
// the image is bit-identical to the one NewSession has always built.
func NewProfileSource(o Options, extra ...workload.Workload) (*ProfileSource, error) {
	if o.Workload == nil {
		o.Workload = defaultWorkload()
	}
	ps := &ProfileSource{
		opt:       o,
		workloads: map[string]workload.Workload{o.Workload.Name(): o.Workload},
	}
	var extras []workload.Workload
	for _, w := range extra {
		if _, dup := ps.workloads[w.Name()]; dup {
			continue
		}
		ps.workloads[w.Name()] = w
		extras = append(extras, w)
	}
	var err error
	ps.appImg, err = appmodel.Build(appmodel.Config{
		Seed: o.Seed, LibScale: o.LibScale, ColdWords: o.ColdWords,
		Workload: o.Workload, ExtraWorkloads: extras,
		FastPath: o.PredictFastPath,
	})
	if err != nil {
		return nil, fmt.Errorf("expt: app image: %w", err)
	}
	ps.kernImg, err = kernel.Build(kernel.Config{Seed: o.Seed + 1, ColdWords: o.KernColdWords})
	if err != nil {
		return nil, fmt.Errorf("expt: kernel image: %w", err)
	}
	ps.baseApp, err = program.BaselineLayout(ps.appImg.Prog)
	if err != nil {
		return nil, err
	}
	ps.baseKern, err = program.BaselineLayout(ps.kernImg.Prog)
	if err != nil {
		return nil, err
	}
	ps.store = o.ProfileStore
	ps.imageID = fmt.Sprintf("%016x-%016x", ps.appImg.Prog.Fingerprint(), ps.kernImg.Prog.Fingerprint())
	return ps, nil
}

// storeKey is a training run's identity in the persistent store: the resolved
// train spec, every option that shapes the profiling run beyond the spec, and
// the content fingerprints of both program images (a profile indexes the
// blocks of one specific build). Training runs ungrouped, so "gc0/pcfalse" is
// a constant; it stays in the key because existing store directories were
// written with it and must still hit.
func (ps *ProfileSource) storeKey(spec string) pstore.Key {
	return pstore.Key{
		Spec: fmt.Sprintf("%s|p%d/gc0/pcfalse/fp%t/dcpi%d",
			spec, ps.opt.ProcsPerCPU, ps.opt.PredictFastPath, dcpiPeriod),
		Image: ps.imageID,
	}
}

// TrainRunsExecuted reports how many training simulations this source has
// actually run — memo and store hits do not count, which is what the pinned
// warm-store regression asserts on.
func (ps *ProfileSource) TrainRunsExecuted() uint64 { return ps.trainExec.Load() }

// LastStoreHit returns the most recent entry served from the persistent
// store (nil if every training so far was executed) — commands report its
// age next to the hit counters.
func (ps *ProfileSource) LastStoreHit() *pstore.Entry { return ps.lastHit.Load() }

// AppImage exposes the shared application image.
func (ps *ProfileSource) AppImage() *codegen.Image { return ps.appImg }

// KernelImage exposes the shared kernel image.
func (ps *ProfileSource) KernelImage() *codegen.Image { return ps.kernImg }

// Covers reports whether the named workload's transaction models are part of
// the source's app image (and it can therefore be trained on or evaluated).
func (ps *ProfileSource) Covers(name string) bool {
	_, ok := ps.workloads[name]
	return ok
}

// WorkloadNames lists the workloads the image covers, sorted.
func (ps *ProfileSource) WorkloadNames() []string {
	names := make([]string, 0, len(ps.workloads))
	for n := range ps.workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Train runs (or returns the memoized) training run for a fully resolved
// config. Concurrent callers for one spec share a single run.
func (ps *ProfileSource) train(tc TrainConfig) (*trainRun, error) {
	if tc.Workload == nil {
		return nil, fmt.Errorf("expt: train config has no workload")
	}
	if !ps.Covers(tc.Workload.Name()) {
		return nil, fmt.Errorf("expt: train workload %q is not modeled in this image (covers %v); list it in NewProfileSource",
			tc.Workload.Name(), ps.WorkloadNames())
	}
	spec := tc.Spec()
	return ps.runs.get(spec, func() (*trainRun, error) { return ps.trainOrLoad(tc, spec) })
}

// isPipelineSpec reports whether a layout name is a raw pass-pipeline spec
// ("chain,split:fine,porder:ph,materialize") rather than a registered combo
// name: specs contain the pass separators, combo names never do. Raw specs
// are first-class layouts — the search engine's genomes measure through the
// same memo layer as the named combos.
func isPipelineSpec(name string) bool { return strings.ContainsAny(name, ",:") }

// pipelineHas reports whether a parsed pipeline contains the named pass, with
// or without an argument.
func pipelineHas(pl core.Pipeline, pass string) bool {
	for _, p := range pl {
		if n := p.Name(); n == pass || strings.HasPrefix(n, pass+":") {
			return true
		}
	}
	return false
}

// pipelineFor resolves a layout name to the pass pipeline implementing it.
// core owns the combo table; expt only knows that a raw spec parses as
// itself and that "dcpi-all" and "kopt" are the full "all" pipeline run over
// a different profile and a different program (see build).
func pipelineFor(name string) (core.Pipeline, error) {
	switch {
	case isPipelineSpec(name):
		return core.ParsePipeline(name)
	case name == "dcpi-all" || name == "kopt":
		name = "all"
	}
	return core.ComboPipeline(name)
}

// build builds (or returns the memoized build of) a named layout trained
// under a fully resolved config: an app layout, or with kernel set one of the
// two kernel layouts "kbase" and "kopt". Layouts depend only on source
// state, so every session of the source shares them. The baselines are the
// source's own; every other name resolves through pipelineFor and runs over
// the training run's app profile — except "dcpi-all", which runs over the
// sampled profile, and "kopt", which lays out the kernel program from the
// kernel profile. A pipeline over the app profile that chains installs the
// source's one chaining of it (see chaining). A pipeline containing txfuse
// runs over a specialized copy of the image with the covered workloads' kind
// roots, so cloned procedures become real code the simulator can fetch; the
// shared image is never mutated.
func (ps *ProfileSource) build(tc TrainConfig, name string, kernel bool) (*builtLayout, error) {
	if kernel != (name == "kbase" || name == "kopt") {
		if kernel {
			return nil, fmt.Errorf("expt: unknown kernel layout %q", name)
		}
		return nil, fmt.Errorf("expt: %q is a kernel layout, not an app layout", name)
	}
	key := builtKey(tc, name)
	return ps.built.get(key, func() (*builtLayout, error) {
		switch name {
		case "base":
			return &builtLayout{layout: ps.baseApp, image: ps.appImg}, nil
		case "kbase":
			return &builtLayout{layout: ps.baseKern, image: ps.kernImg}, nil
		}
		pl, err := pipelineFor(name)
		if err != nil {
			return nil, fmt.Errorf("expt: layout %q: %w", name, err)
		}
		run, err := ps.train(tc)
		if err != nil {
			return nil, err
		}
		img, prof := ps.appImg, run.App
		var chains core.Chaining
		switch name {
		case "kopt":
			img, prof = ps.kernImg, run.Kern
		case "dcpi-all":
			prof = run.DCPI
		default:
			if pipelineHas(pl, "chain") {
				chains = ps.chaining(key.train, run.App)
			}
		}
		pf := privateProfile(prof)
		var roots []core.KindRoot
		var cloner core.ProcCloner
		if pipelineHas(pl, "txfuse") {
			img = img.Specialize()
			if roots, err = ps.fusionRoots(img); err != nil {
				return nil, err
			}
			cloner = img
			// txfuse moves counts and edges onto clones, so the copy must be
			// deep.
			pf = prof.Clone()
		}
		l, rep, err := pl.RunChained(img.Prog, pf, chains, roots, cloner)
		if err != nil {
			return nil, fmt.Errorf("expt: layout %q (train %s): %w", name, key.train, err)
		}
		if cloner != nil && l.TotalBytes() > isa.AppTextLimitBytes {
			return nil, fmt.Errorf("expt: fused layout is %d bytes, past the %d-byte app text map; lower the txfuse clone budget",
				l.TotalBytes(), isa.AppTextLimitBytes)
		}
		return &builtLayout{layout: l, report: rep, image: img}, nil
	})
}

// privateProfile returns a copy of prof a pipeline may run over. When prof
// carries no measured edges (sampling profiles, or a degenerate training run)
// the copy has no edge map at all: EnsureEdges would otherwise estimate edges
// into the shared map, contaminating it and racing concurrent builds.
func privateProfile(prof *profile.Profile) *profile.Profile {
	pf := &profile.Profile{Name: prof.Name, BlockCount: prof.BlockCount}
	if prof.HasEdges() {
		pf.EdgeCount = prof.EdgeCount
	}
	return pf
}

// chaining returns (computing it once per train spec) the chain pass's result
// over the app program and a training run's app profile, which every app
// pipeline that chains installs instead of chaining again. A fusing pipeline
// can share it because its specialized image starts as an unmodified copy of
// the app program and chain runs before txfuse clones anything. (A profile
// that does not fit the program chains harmlessly: the pipeline rejects it
// before its chain pass runs.)
func (ps *ProfileSource) chaining(spec string, app *profile.Profile) core.Chaining {
	ch, _ := ps.chains.get(spec, func() (core.Chaining, error) {
		prog, pf := ps.appImg.Prog, privateProfile(app)
		pf.EnsureEdges(prog)
		return core.ChainProgram(prog, pf), nil
	})
	return ch
}

// layout is build reduced to the layout itself.
func (ps *ProfileSource) layout(tc TrainConfig, name string, kernel bool) (*program.Layout, error) {
	b, err := ps.build(tc, name, kernel)
	if err != nil {
		return nil, err
	}
	return b.layout, nil
}

// fusionRoots resolves the kind roots of every covered workload against an
// image for the txfuse pipeline's RunFused entry, in sorted workload order so
// the root list — and therefore the fused layout — is deterministic. A
// declared root missing from the image is an error; two kinds naming one
// model resolve to a single root.
func (ps *ProfileSource) fusionRoots(img *codegen.Image) ([]core.KindRoot, error) {
	var roots []core.KindRoot
	seen := make(map[program.ProcID]bool)
	for _, name := range ps.WorkloadNames() {
		for _, r := range ps.workloads[name].KindRoots() {
			fn, ok := img.Fns[r.Root]
			if !ok {
				return nil, fmt.Errorf("expt: fusion root %q (workload %s, kind %s) is not modeled in the image", r.Root, name, r.Kind)
			}
			if !seen[fn.Proc.ID] {
				seen[fn.Proc.ID] = true
				roots = append(roots, core.KindRoot{Kind: r.Kind, Proc: fn.Proc.ID})
			}
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("expt: the fusion layout needs kind roots; none of %v declares any", ps.WorkloadNames())
	}
	return roots, nil
}

// trainOrLoad serves a training run from the persistent store when one is
// configured and holds the key, and executes (then persists) it otherwise.
// Stored profiles are exact, so either path yields the same record.
func (ps *ProfileSource) trainOrLoad(tc TrainConfig, spec string) (*trainRun, error) {
	if ps.store != nil {
		if e, ok := ps.store.Get(ps.storeKey(spec)); ok {
			ps.lastHit.Store(e)
			return &trainRun{Entry: e}, nil
		}
	}
	run, err := ps.runTraining(tc, spec)
	if err == nil && ps.store != nil {
		// Persistence is best-effort: a full disk must not fail the
		// experiment, and the in-memory memo still carries the run.
		_ = ps.store.Put(run.Entry)
	}
	return run, err
}

// runTraining executes one profiling run — Pixie instrumentation on app and
// kernel plus a DCPI-style sampler over the same run — and is the one place a
// training record is made: the store writes and returns this entry as is. It
// is the training lowering of options to a machine.Config, beside
// Session.MachineConfig's measurement one: training runs without group
// commit or a fetch-stall model, over the base layouts, with the collectors
// attached.
func (ps *ProfileSource) runTraining(tc TrainConfig, spec string) (*trainRun, error) {
	px := profile.NewPixie(ps.appImg.Prog, "pixie-train")
	kx := profile.NewPixie(ps.kernImg.Prog, "kprofile")
	dcpi := profile.NewDCPI(ps.baseApp, dcpiPeriod)
	cfg := machine.Config{
		CPUs:            tc.CPUs,
		ProcsPerCPU:     ps.opt.ProcsPerCPU,
		Seed:            tc.Seed,
		Shards:          tc.Shards,
		PredictFastPath: fastPathOn(ps.opt.PredictFastPath, tc.Shards),
		WarmupTxns:      tc.WarmupTxns,
		Transactions:    tc.Txns,
		Workload:        tc.Workload,
		AppImage:        ps.appImg,
		AppLayout:       ps.baseApp,
		KernImage:       ps.kernImg,
		KernLayout:      ps.baseKern,
		AppCollector:    px,
		KernCollector:   kx,
		Sinks:           []trace.Sink{dcpi},
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: training %s: %w", spec, err)
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("expt: training %s: %w", spec, err)
	}
	ps.trainExec.Add(1)
	key := ps.storeKey(spec)
	return &trainRun{res: res, Entry: &pstore.Entry{
		Spec: key.Spec, Image: key.Image, CreatedAt: time.Now(),
		KindFreq: m.KindFrequencies(), Fields: m.FieldProfile(),
		App: px.Profile(), Kern: kx.Profile(), DCPI: dcpi.Finish("dcpi-train"),
	}}, nil
}
