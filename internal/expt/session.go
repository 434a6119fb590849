// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the simulated system. A
// ProfileSource owns the built images and the memoized training runs; a
// Session evaluates layouts built from those profiles under its own
// measurement configuration. Training and evaluation are decoupled: a
// session is bound at construction to one training configuration
// (Options.Train), which may name a different workload or shard count than
// the one it evaluates. Training runs and layouts are memoized on the source
// by train spec, measurements per session, so sessions over one source — one
// per (train, eval) pair — share every training run and layout.
//
// Options is the one description of a run. It has one way in from a command
// line — BindFlags and Flags.Resolve (flags.go), shared by oltpgen, pixie,
// oltpbench and layoutlab — and one way out to the simulator:
// Session.MachineConfig lowers a session's options and a layout name to the
// machine.Config the measured run executes.
package expt

import (
	"fmt"
	"runtime"
	"sync"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// Options configures a session: the measurement (evaluation) half of the
// configuration, plus the TrainConfig the session's profiles come from.
// Train fields left zero inherit the matching evaluation fields, so a plain
// Options trains and evaluates under one configuration, as the paper does.
//
// A field is here because more than one caller sets it. A knob with one
// owner stays with that owner: DataLayoutTable installs the grouped record
// layout, and the DCPI sampling period is a constant.
type Options struct {
	Seed int64

	// Train is the training configuration: the profile every layout of the
	// session is built from. Zero fields inherit from the evaluation side —
	// Workload, Shards, WarmupTxns from the same-named fields here, Seed
	// from Seed, Txns from Transactions — and training always runs on CPUs.
	// To evaluate a layout trained elsewhere, set the fields that differ and
	// open a session over a source covering both workloads (NewSessionFrom).
	Train TrainConfig

	CPUs        int
	ProcsPerCPU int

	// Shards is the partitioned-engine count behind the shard router; 0 or
	// 1 runs the single shared engine (see machine.Config.Shards).
	Shards int
	// AutoGroupCommit is the measured runs' group-commit policy (see
	// machine.GroupCommit); training runs ungrouped.
	AutoGroupCommit machine.GroupCommit
	// PredictFastPath enables the predictive single-shard fast path (see
	// machine.Config.PredictFastPath) on the session's sharded measurement
	// runs and adds the predictor models to the source's app image.
	// Single-shard measurements ignore it (there is no router to skip).
	PredictFastPath bool

	Transactions int
	WarmupTxns   int

	// FetchStallPenaltyInstr charges each L1 instruction-cache miss this
	// many instruction-times of stall on the fetching CPU's clock (see
	// machine.Config.FetchStallPenaltyInstr). 0 keeps the pure
	// fetch-bandwidth clock; latency comparisons between layouts (fusion vs
	// ipchain) need a non-zero penalty for locality to show up in
	// per-transaction latency at all.
	FetchStallPenaltyInstr uint64

	// Workload is the transaction mix every measured run in the session
	// uses; nil defaults to TPC-B at paper scale. Callers replacing the
	// workload choose its scale: QuickOptions quick-scales only its own
	// default, so pass w.QuickScale() (or a custom small scale) for quick
	// sessions.
	Workload      workload.Workload
	LibScale      float64
	ColdWords     int
	KernColdWords int

	// ProfileStore, when non-nil, backs the source's training memo with a
	// persistent profile store: training runs whose key (the training spec
	// the memo keys by, which spells the whole workload, and the content
	// fingerprints of both program images) is already in the store are
	// loaded instead of re-run, and fresh runs are written back. Profiles
	// are exact, so a store hit yields bit-identical layouts and
	// measurements to retraining.
	ProfileStore *pstore.Store
}

func defaultWorkload() workload.Workload { return tpcb.New() }

// DefaultOptions returns the paper-scale configuration: 4 processors, 8
// server processes each, 40 branches, 500 measured transactions, profiles
// trained on a separate 2000-transaction run with a different seed, over the
// images appmodel.DefaultConfig and kernel.DefaultConfig shape.
func DefaultOptions() Options {
	app, kern := appmodel.DefaultConfig(2001, tpcb.New()), kernel.DefaultConfig(0)
	return Options{
		Seed:  app.Seed,
		Train: TrainConfig{Seed: 1998, Txns: 2000},
		CPUs:  4, ProcsPerCPU: 8,
		Transactions: 500, WarmupTxns: 100,
		Workload: app.Workload,
		LibScale: app.LibScale, ColdWords: app.ColdWords, KernColdWords: kern.ColdWords,
	}
}

// QuickOptions returns a shrunken configuration for tests and default
// bench runs. The workload shrinks through its own QuickScale, so the preset
// works for any workload.
func QuickOptions() Options {
	o := DefaultOptions()
	o.CPUs = 2
	o.ProcsPerCPU = 6
	o.Transactions = 150
	o.WarmupTxns = 40
	o.Train.Txns = 400
	o.Workload = o.Workload.QuickScale()
	o.LibScale = 0.4
	o.ColdWords = 900_000
	o.KernColdWords = 250_000
	return o
}

// resolveTrain returns o.Train with its zero fields filled from the
// evaluation side, and the evaluation's processor count. The result is fully
// resolved: the source's trainSpec of it is a stable key.
func (o Options) resolveTrain() TrainConfig {
	tc := o.Train
	if tc.Workload == nil {
		tc.Workload = o.Workload
	}
	if tc.Seed == 0 {
		tc.Seed = o.Seed
	}
	if tc.Shards == 0 {
		tc.Shards = o.Shards
	}
	if tc.Txns == 0 {
		tc.Txns = o.Transactions
	}
	if tc.WarmupTxns == 0 {
		tc.WarmupTxns = o.WarmupTxns
	}
	tc.cpus = o.CPUs
	return tc
}

// Session owns the evaluation half of an experiment — memoized measurement
// runs over the profile source's images and layouts, built from the one
// training configuration the session was opened with. Nothing in a Session
// is written after NewSessionFrom returns and all methods are safe for
// concurrent use: every memo is the single-flight memo of memo.go, so
// MeasureAll can fan measurement runs of many sessions out across one worker
// pool and concurrent callers of one key share one run. Layouts are memoized
// on the shared ProfileSource by train spec, so sessions of one source never
// rebuild them and layouts trained under different configs never collide.
// Memoized values live until ReleaseAll drops them: a caller that reads each
// measurement once, as a search does, keeps only what it has not yet scored.
type Session struct {
	// Opt is the session's configuration. It is read-only after
	// construction: the measurement memo belongs to one session, so its keys
	// carry only what varies between two measurements of that session.
	Opt Options

	src *ProfileSource
	tc  TrainConfig // Opt.Train, resolved

	sinks    SinkSet // what Measure attaches; AllSinks unless a Reading view
	measures *memo[measKey, *Measure]
}

// MemoStats is the session's memo-layer report card: the measurement memo
// (this session's) plus the layout and training memos (shared with every
// session of the same ProfileSource). Search runs assert on it to prove
// population evaluation actually dedups — executed measurements must stay
// strictly below the requested genome evaluations.
type MemoStats struct {
	Measure MemoCounters
	Layout  MemoCounters
	Train   MemoCounters
}

// MemoStats returns the session's memo counters (see MemoStats type).
func (s *Session) MemoStats() MemoStats {
	return MemoStats{
		Measure: s.measures.counters(),
		Layout:  s.src.built.counters(),
		Train:   s.src.runs.counters(),
	}
}

type measKey struct {
	layout string
	kern   string
	cpus   int
	sinks  SinkSet
}

// NewSession builds a private profile source (images and baseline layouts)
// and the session over it.
func NewSession(o Options) (*Session, error) {
	src, err := NewProfileSource(o)
	if err != nil {
		return nil, err
	}
	return NewSessionFrom(src, o)
}

// NewSessionFrom builds a session that borrows src's images and training
// memo instead of building its own. Sessions sharing one source evaluate
// over one program, so a layout trained by any of them is portable to all
// of them; o's evaluation workload must be covered by the source's image.
// Image-shape fields of o (Seed, LibScale, ColdWords, KernColdWords,
// Workload models) are ignored in favor of the source's.
func NewSessionFrom(src *ProfileSource, o Options) (*Session, error) {
	if o.Workload == nil {
		o.Workload = src.opt.Workload
	}
	if !src.Covers(o.Workload.Name()) {
		return nil, fmt.Errorf("expt: eval workload %q is not modeled in the source image (covers %v); list it in NewProfileSource",
			o.Workload.Name(), src.WorkloadNames())
	}
	if fastPathOn(o.PredictFastPath, o.Shards) && src.appImg.Fns["predict_check"] == nil {
		return nil, fmt.Errorf("expt: PredictFastPath needs the predictor models in the source image; build the ProfileSource with Options.PredictFastPath set")
	}
	return &Session{Opt: o, src: src, tc: o.resolveTrain(), sinks: AllSinks, measures: new(memo[measKey, *Measure])}, nil
}

// Reading returns a view of the session whose Measure, MeasureKern and
// MeasureBatch attach only the sink groups of set — what the caller will
// read off the Measure — instead of the full battery. The view shares the
// session's memo (keyed by set as well, so a run is never served to a reader
// of fields it did not simulate) and everything else.
func (s *Session) Reading(set SinkSet) *Session {
	v := *s
	v.sinks = set
	return &v
}

// Source exposes the session's profile source (for sharing with further
// sessions — see NewSessionFrom).
func (s *Session) Source() *ProfileSource { return s.src }

// AppImage exposes the application image (facade and tools).
func (s *Session) AppImage() *codegen.Image { return s.src.appImg }

// AppImageFor returns the app image measurements of the named layout run
// over (building the layout if needed): the specialized (clone-grown) image
// for "fusion" and any other fusing pipeline, the shared image for
// everything else — including a name whose layout fails to build.
func (s *Session) AppImageFor(name string) *codegen.Image {
	if b, err := s.src.build(s.tc, name, false); err == nil {
		return b.image
	}
	return s.src.appImg
}

// KernelImage exposes the kernel image.
func (s *Session) KernelImage() *codegen.Image { return s.src.kernImg }

// TrainSpec returns the spec of the session's training run: the key its
// profiles are memoized and stored under.
func (s *Session) TrainSpec() string { return s.src.trainSpec(s.tc) }

// Train runs the session's training configuration's profiling run once (Pixie
// instrumentation plus a DCPI-style sampler over the same run) and caches
// the profiles in the source. Concurrent callers block until the single
// training run finishes.
func (s *Session) Train() error {
	_, err := s.src.train(s.tc)
	return err
}

// Profile returns the Pixie training profile of the session's train config
// (training first if needed).
func (s *Session) Profile() (*profile.Profile, error) {
	run, err := s.src.train(s.tc)
	if err != nil {
		return nil, err
	}
	return run.App, nil
}

// KernProfile returns the kernel Pixie profile of the same training run.
func (s *Session) KernProfile() (*profile.Profile, error) {
	run, err := s.src.train(s.tc)
	if err != nil {
		return nil, err
	}
	return run.Kern, nil
}

// TrainResult returns the machine result of the session's training run
// (training first if needed): what the profiled transactions cost. It is the
// zero Result when the run was served from the profile store, which keeps
// profiles only.
func (s *Session) TrainResult() (machine.Result, error) {
	run, err := s.src.train(s.tc)
	if err != nil {
		return machine.Result{}, err
	}
	return run.res, nil
}

// TrainKindFreq returns the transaction-kind frequencies the session's
// training run observed (training first if needed) — the reference mix a
// drift monitor compares live traffic against
// (machine.Config.TrainKindFreq).
func (s *Session) TrainKindFreq() (map[string]float64, error) {
	run, err := s.src.train(s.tc)
	if err != nil {
		return nil, err
	}
	return run.KindFreq, nil
}

// PipelineSpec returns the resolved pass list of a named layout (for
// reports, and for re-running the same pipeline over a fresh profile).
// "base" has no pipeline and resolves to the empty spec.
func (s *Session) PipelineSpec(name string) (string, error) {
	if name == "base" {
		return "", nil
	}
	pl, err := pipelineFor(name)
	if err != nil {
		return "", err
	}
	return pl.String(), nil
}

// Layout returns (building if needed) a named app layout trained under the
// session's train config. Known names: base, every row of core.Combos() and
// dcpi-all. A name containing pass separators (",", ":") is treated as a raw
// pipeline spec and built through core.ParsePipeline. Any pipeline
// containing txfuse — the "fusion" combo or a raw spec — runs over a
// specialized copy of the app image (AppImageFor returns it) so shared
// procedures can be cloned into each transaction kind's fused unit. Raw
// specs flow through Measure and MeasureAll too, which is how the search
// engine evaluates a generation on every workload as one memoized parallel
// batch.
func (s *Session) Layout(name string) (*program.Layout, error) {
	return s.src.layout(s.tc, name, false)
}

// Report returns the optimizer report for a layout built under the
// session's train config (building it if needed); nil for
// "base", which no pipeline produced, and for a layout that fails to build.
func (s *Session) Report(name string) *core.Report {
	b, err := s.src.build(s.tc, name, false)
	if err != nil {
		return nil
	}
	return b.report
}

// KernLayout returns a kernel layout: "kbase" or "kopt" (kernel code laid
// out with the full optimization pipeline over the train config's kernel
// profile).
func (s *Session) KernLayout(name string) (*program.Layout, error) {
	return s.src.layout(s.tc, name, true)
}

// MachineConfig lowers the session's options and a named layout (baseline
// kernel layout) to the machine.Config a measurement of that layout runs —
// the measurement lowering of Options; ProfileSource.runTraining is the
// training one. The sinks are left empty: Measure (or MeasureConfig, for a
// config edited after this call) attaches the sink groups its reader asked
// for.
func (s *Session) MachineConfig(layout string, cpus int) (machine.Config, error) {
	return s.machineConfig(layout, "kbase", cpus)
}

func (s *Session) machineConfig(layout, kern string, cpus int) (machine.Config, error) {
	app, err := s.src.build(s.tc, layout, false)
	if err != nil {
		return machine.Config{}, err
	}
	kernL, err := s.src.layout(s.tc, kern, true)
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{
		CPUs:                   cpus,
		ProcsPerCPU:            s.Opt.ProcsPerCPU,
		Seed:                   s.Opt.Seed,
		Shards:                 s.Opt.Shards,
		AutoGroupCommit:        s.Opt.AutoGroupCommit,
		PredictFastPath:        fastPathOn(s.Opt.PredictFastPath, s.Opt.Shards),
		FetchStallPenaltyInstr: s.Opt.FetchStallPenaltyInstr,
		WarmupTxns:             s.Opt.WarmupTxns,
		Transactions:           s.Opt.Transactions,
		Workload:               s.Opt.Workload,
		AppImage:               app.image,
		AppLayout:              app.layout,
		KernImage:              s.src.kernImg,
		KernLayout:             kernL,
	}, nil
}

// Measure runs (or returns the memoized run of) the workload under the
// named layout with the full measurement battery attached (on a Reading
// view: with the view's sink groups).
func (s *Session) Measure(layout string, cpus int) (*Measure, error) {
	return s.MeasureKern(layout, "kbase", cpus)
}

// MeasureKern is Measure with an explicit kernel layout. Concurrent calls
// for the same (layout, kernel, cpus, sink set) key share one simulation run:
// the first caller runs it, later callers block until the result (or error)
// is memoized.
func (s *Session) MeasureKern(layout, kern string, cpus int) (*Measure, error) {
	key := measKey{layout: layout, kern: kern, cpus: cpus, sinks: s.sinks}
	return s.measures.get(key, func() (*Measure, error) {
		cfg, err := s.machineConfig(layout, kern, cpus)
		if err != nil {
			return nil, err
		}
		return s.MeasureConfig(cfg, s.sinks, fmt.Sprintf("%s/%s/%dcpu (train %s)", layout, kern, cpus, s.TrainSpec()))
	})
}

// MeasureConfig is the tail every measurement shares: attach a battery of
// the sink groups in set to cfg — new, or reset by an earlier run of the same
// CPUs and set over the session's source — run the machine, audit the
// workload's invariants after drain-to-quiescence — a measurement of a run
// that corrupted the database is not a measurement — and collect the battery
// into a Measure. The battery's lanes live inside the call: however the run
// ends, the log is closed and every lane has exited before it returns. Only a
// run that succeeded leaves its battery for the next one. what names the run
// in errors. It is exported for a caller that edits the config the session
// lowered (oltpbench's -layout file and -reopt) before measuring it.
func (s *Session) MeasureConfig(cfg machine.Config, set SinkSet, what string) (*Measure, error) {
	log := attachBattery(&cfg, set, &s.src.batteries)
	mach, err := machine.New(cfg)
	if err != nil {
		log.close() // the lanes saw no event: they have no failure to report
		return nil, err
	}
	res, err := mach.Run()
	if err == nil {
		err = mach.CheckInvariants()
	}
	if laneErr := log.close(); err == nil {
		err = laneErr
	}
	if err != nil {
		return nil, fmt.Errorf("expt: measuring %s: %w", what, err)
	}
	meas := &Measure{Res: res, Sinks: set, Latency: mach.LatencyByKind(), GCWindows: mach.GroupCommitWindows()}
	log.file(meas)
	return meas, nil
}

// MeasureBatch measures every named layout concurrently: it is MeasureAll
// over the one session. Each result lands in the memo, so subsequent serial
// Measure calls are hits.
func (s *Session) MeasureBatch(layouts []string, cpus, workers int) error {
	return MeasureAll([]*Session{s}, layouts, cpus, workers)
}

// MeasureAll measures every layout on every session as one batch: each
// (session, layout) cell is a job on one bounded worker pool (workers <= 0
// picks GOMAXPROCS, never more than there are cells). Jobs go in
// session-major order — every layout of sessions[0] first — so the new
// layouts build once each, in parallel with each other, before a later
// session asks for them. The results land in each session's memo; the first
// error in job order is returned after all workers drain.
//
// A serial Measure already runs its battery's lanes beside the machine, so on
// two cores a full-battery batch buys little over measuring in turn (1.1x for
// three figure layouts; 1.6x when the battery ran inline). What a batch still
// overlaps is what one run cannot: the machine's own goroutine, which no lane
// runs ahead of — all of a run under NoSinks and most of one under a
// one-cache set, which is every fitness evaluation of a search — the layout
// builds, and the cores beyond those one run's lanes keep busy. One batch
// over all of a search's sessions, rather than one per session, keeps both
// cores of a two-core box busy through a generation of one to three fresh
// specs: a 6 × 3 search over tpcb+ordere+ycsb with two workers went from
// 1.56–1.63 to 1.73–1.87 cores busy, and its median from 0.55 to 0.48 s.
//
// Everything a batch builds stays memoized — each measurement, and each app
// layout with the specialized image a fused one runs over — until ReleaseAll
// drops it.
func MeasureAll(sessions []*Session, layouts []string, cpus, workers int) error {
	if len(layouts) == 0 {
		return nil
	}
	// The training run is a shared dependency of every layout build; do it
	// before fanning out so workers start from the same memoized profiles
	// instead of queueing behind the in-flight dedup. Training once per
	// session, even where sessions share a train spec, leaves the training
	// memo's counters what one batch per session left.
	for _, s := range sessions {
		if err := s.Train(); err != nil {
			return err
		}
	}
	cells := len(sessions) * len(layouts)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	jobs := make(chan int)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				_, errs[j] = sessions[j/len(layouts)].Measure(layouts[j%len(layouts)], cpus)
			}
		}()
	}
	for j := 0; j < cells; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReleaseAll is MeasureAll's counterpart: it drops the memoized measurement of
// every layout on every session (as Measure keys it: the baseline kernel
// layout, cpus, the session's sink set) and the app layouts those ran, with
// the specialized images fused layouts carry; the baselines, the source's
// own layouts, stay. A memo keeps each released key's slot, so MemoStats
// reads as if nothing were released; asking for a released key again
// rebuilds it and counts a miss. A search releases each wave once scored, so
// its memory is one generation's, not the run's. A build still in flight is
// waited for.
func ReleaseAll(sessions []*Session, layouts []string, cpus int) {
	for _, s := range sessions {
		spec := s.TrainSpec()
		for _, name := range layouts {
			s.measures.release(measKey{layout: name, kern: "kbase", cpus: cpus, sinks: s.sinks})
			s.src.built.release([2]string{spec, name})
		}
	}
}
