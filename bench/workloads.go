package main

import (
	"fmt"
	"math"
	"sort"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/search"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// stallPenalty is the fetch-stall charge every workload runs with: without
// one, layout quality cannot reach the simulated latency clock at all.
const stallPenalty = 40

// imageSeed fixes the generated application and kernel binaries: the program
// being laid out is part of the system, not an input. The benchmark seed
// drives what runs over it: on workloads 1-3 the transaction inputs of
// training and measurement (Options.Seed, machine.Config.Seed), on
// search-mix the search's random stream (search.Config.Seed). search.Run
// takes one Options.Seed for its images and its machines alike, so there the
// transaction inputs are fixed with the images; letting them vary made one
// simulation cost 0.23-0.28 s depending on the seed, which is the program
// changing, not the search.
const imageSeed = 2001

// sizes fixes how much work one repetition is. The full sizes are chosen so
// that one repetition takes 2-4 s on a 2-core 2.1 GHz machine (search-mix:
// ~11 s); the tiny sizes keep `go test` in seconds.
type sizes struct {
	figTxns, figWarm, figTrain int

	ordereScale                ordere.Scale
	ordereShards               int
	ordereTxns, ordereWarm     int
	ycsbTxns, ycsbWarm         int
	searchPop, searchGens      int
	searchTxns, searchWarm     int
	searchTrain                int
	libScale                   float64
	coldWords, kernColdWords   int
	searchLib                  float64
	searchCold, searchKernCold int

	// probeDiv divides a repetition's transactions for the extra
	// direct-machine runs of the traced run (capture, stall-0, counting-sink,
	// Pixie).
	probeDiv int
	// probeN scales the iteration counts of the leaf-layer probes.
	probeN int
	// captureMax bounds the fetch runs (and data refs) kept in memory.
	captureMax int
}

var fullSizes = sizes{
	figTxns: 200, figWarm: 40, figTrain: 400,

	ordereScale:  ordere.Scale{Warehouses: 8, DistrictsPerWarehouse: 4, CustomersPerDistrict: 60, Items: 300},
	ordereShards: 8,
	ordereTxns:   3000, ordereWarm: 200,
	ycsbTxns: 40000, ycsbWarm: 500,
	searchPop: 6, searchGens: 3,
	searchTxns: 60, searchWarm: 15, searchTrain: 150,
	libScale: 0.4, coldWords: 900_000, kernColdWords: 250_000,
	searchLib: 0.3, searchCold: 400_000, searchKernCold: 100_000,

	probeDiv:   3,
	probeN:     20000,
	captureMax: 2_000_000,
}

var tinySizes = sizes{
	figTxns: 24, figWarm: 6, figTrain: 40,

	ordereScale:  ordere.Scale{Warehouses: 4, DistrictsPerWarehouse: 3, CustomersPerDistrict: 30, Items: 100},
	ordereShards: 4,
	ordereTxns:   80, ordereWarm: 20,
	ycsbTxns: 400, ycsbWarm: 40,
	searchPop: 2, searchGens: 1,
	searchTxns: 10, searchWarm: 2, searchTrain: 20,
	libScale: 0.2, coldWords: 100_000, kernColdWords: 40_000,
	searchLib: 0.2, searchCold: 50_000, searchKernCold: 20_000,

	probeDiv:   1,
	probeN:     300,
	captureMax: 200_000,
}

// workloadDef names one benchmark workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	// setup does the workload's cold, untimed-by-repetition set-up: fresh
	// images, profile source, training run and layouts.
	setup func(seed int64, sz sizes, tr *tracer) (prepared, error)
}

var workloads = []workloadDef{
	{
		name:  "figures-tpcb",
		why:   "paper figure path: serial Session.Measure of base/all/fusion with the full cache battery; cache+trace+expt do >90% of the work",
		setup: setupFigures,
	},
	{
		name:  "machine-ordere-sharded",
		why:   "write-heavy order-entry on 8 shards with 2PC, group commit and the predicted fast path, no sinks; machine+db+shard+predict do all the work",
		setup: setupOrdere,
	},
	{
		name:  "machine-ycsb-plain",
		why:   "90% point reads on the single-engine path, no sinks; per-transaction fixed cost in scheduling and the emitter dominates the engine write path",
		setup: setupYCSB,
	},
	{
		name:  "search-mix",
		why:   "one evolutionary pipeline search over tpcb+ordere+ycsb with 2 workers; many candidate layouts each read for one scalar, training inside the loop",
		setup: setupSearch,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simRun is the outcome of one simulation the benchmark can see into.
type simRun struct {
	label     string
	requested int
	res       machine.Result
	lat       []machine.TxnLatency
}

// repOutcome is what one repetition produced.
type repOutcome struct {
	// sims and txns count every simulation executed and every measured
	// transaction requested, visible or not (search runs its own).
	sims int
	txns uint64
	// runs are the simulations whose Result the benchmark holds; the gate
	// checks each.
	runs []simRun
	// subject is the run the sim_* metrics describe, base the same
	// configuration under the unoptimized layout (nil when the repetition
	// has none).
	subject *simRun
	base    *simRun
	// search is set on search-mix.
	search *search.Result
	// extra feeds the checksum with whatever else must repeat exactly.
	extra string
}

// prepared is a workload after set-up.
type prepared interface {
	// warmup runs the discarded pass before the timed repetitions and may
	// return the base-layout run the gate compares the subject against.
	warmup(tr *tracer) (*repOutcome, error)
	// rep runs one repetition.
	rep(tr *tracer) (*repOutcome, error)
	// finish produces the subject of a workload whose repetitions do not
	// hold one (search-mix re-measures its winner here, untimed).
	finish(last *repOutcome, tr *tracer) error
	// subjectConfig is the direct-machine configuration of the subject run
	// (on search-mix: last's winner on the training workload) with the given
	// transaction counts, for the traced run's probes.
	subjectConfig(last *repOutcome, txns, warm int) (machine.Config, error)
	// sourceOptions returns what the workload's profile source was built
	// from, for the probes that rebuild images or sources.
	sourceOptions() (expt.Options, []workload.Workload)
	// session is the expt session set-up built (profiles, layouts, images).
	session() *expt.Session
	// nominal returns the workload's measured and warm-up transaction counts
	// per simulation.
	nominal() (txns, warm int)
}

// baseOptions is the quick-scale session configuration every workload
// starts from.
func baseOptions(seed int64, sz sizes) expt.Options {
	o := expt.QuickOptions()
	o.Seed = seed
	o.Train.Seed = seed + 1000 // train and evaluate on different inputs, as the paper does
	o.FetchStallPenaltyInstr = stallPenalty
	o.LibScale = sz.libScale
	o.ColdWords = sz.coldWords
	o.KernColdWords = sz.kernColdWords
	return o
}

// imageOptions is o with the fixed image seed: what workloads 1-3 build
// their profile source from.
func imageOptions(o expt.Options) expt.Options {
	o.Seed = imageSeed
	return o
}

func newSource(o expt.Options, tr *tracer, extra ...workload.Workload) (*expt.ProfileSource, error) {
	var src *expt.ProfileSource
	err := tr.do("expt.NewProfileSource", func() (err error) {
		src, err = expt.NewProfileSource(o, extra...)
		return err
	})
	return src, err
}

// trainAndLayout trains the session and builds the named layouts, one span
// each.
func trainAndLayout(s *expt.Session, tr *tracer, layouts ...string) error {
	if err := tr.do("Session.Train", s.Train); err != nil {
		return err
	}
	for _, l := range layouts {
		if err := tr.do("Session.Layout."+l, func() error { _, err := s.Layout(l); return err }); err != nil {
			return err
		}
	}
	return nil
}

// sessionPrep is the part of a prepared workload that follows from the one
// expt session workloads 1-3 set up: its options are the workload's sizes,
// its source holds the images, and the subject is its "all" layout.
type sessionPrep struct {
	s *expt.Session
}

func (p sessionPrep) finish(*repOutcome, *tracer) error { return nil }

func (p sessionPrep) subjectConfig(_ *repOutcome, txns, warm int) (machine.Config, error) {
	return sessionConfig(p.s, "all", txns, warm)
}

func (p sessionPrep) sourceOptions() (expt.Options, []workload.Workload) {
	return imageOptions(p.s.Opt), nil
}

func (p sessionPrep) session() *expt.Session { return p.s }
func (p sessionPrep) nominal() (int, int)    { return p.s.Opt.Transactions, p.s.Opt.WarmupTxns }

// setupSession builds fresh images for o, a session over them, the training
// run and the named layouts.
func setupSession(o expt.Options, tr *tracer, layouts ...string) (sessionPrep, error) {
	src, err := newSource(imageOptions(o), tr)
	if err != nil {
		return sessionPrep{}, err
	}
	s, err := expt.NewSessionFrom(src, o)
	if err != nil {
		return sessionPrep{}, err
	}
	return sessionPrep{s}, trainAndLayout(s, tr, layouts...)
}

// ---- figures-tpcb ----

var figureLayouts = []string{"base", "all", "fusion"}

type figuresPrep struct{ sessionPrep }

func setupFigures(seed int64, sz sizes, tr *tracer) (prepared, error) {
	o := baseOptions(seed, sz)
	o.Transactions = sz.figTxns
	o.WarmupTxns = sz.figWarm
	o.Train.Txns = sz.figTrain
	sp, err := setupSession(o, tr, figureLayouts...)
	if err != nil {
		return nil, err
	}
	return &figuresPrep{sp}, nil
}

func (p *figuresPrep) warmup(tr *tracer) (*repOutcome, error) { return p.rep(tr) }

func (p *figuresPrep) rep(tr *tracer) (*repOutcome, error) {
	// A fresh session has an empty measurement memo, so every Measure
	// simulates; layouts and profiles stay memoized on the source.
	o := p.s.Opt
	s, err := expt.NewSessionFrom(p.s.Source(), o)
	if err != nil {
		return nil, err
	}
	out := &repOutcome{}
	for _, l := range figureLayouts {
		var m *expt.Measure
		if err := tr.do("Session.Measure."+l, func() (err error) {
			m, err = s.Measure(l, o.CPUs)
			return err
		}); err != nil {
			return nil, err
		}
		out.sims++
		out.txns += uint64(o.Transactions)
		out.runs = append(out.runs, simRun{label: l, requested: o.Transactions, res: m.Res, lat: m.Latency})
	}
	out.base, out.subject = &out.runs[0], &out.runs[1]
	return out, nil
}

// sessionConfig is the machine configuration Session.Measure would run for
// the named layout, minus the battery.
func sessionConfig(s *expt.Session, layout string, txns, warm int) (machine.Config, error) {
	appL, err := s.Layout(layout)
	if err != nil {
		return machine.Config{}, err
	}
	kernL, err := s.KernLayout("kbase")
	if err != nil {
		return machine.Config{}, err
	}
	o := s.Opt
	return machine.Config{
		CPUs: o.CPUs, ProcsPerCPU: o.ProcsPerCPU, Seed: o.Seed,
		Shards:                 o.Shards,
		AutoGroupCommit:        o.AutoGroupCommit,
		PredictFastPath:        o.PredictFastPath && o.Shards > 1,
		FetchStallPenaltyInstr: o.FetchStallPenaltyInstr,
		WarmupTxns:             warm,
		Transactions:           txns,
		Workload:               o.Workload,
		AppImage:               s.AppImageFor(layout),
		AppLayout:              appL,
		KernImage:              s.KernelImage(),
		KernLayout:             kernL,
	}, nil
}

// ---- machine-ordere-sharded, machine-ycsb-plain ----

// machinePrep drives machine.New + Run + CheckInvariants directly, with no
// sinks attached.
type machinePrep struct{ sessionPrep }

func setupMachine(o expt.Options, txns, warm int, tr *tracer) (prepared, error) {
	o.Transactions = txns
	o.WarmupTxns = warm
	sp, err := setupSession(o, tr, "base", "all")
	if err != nil {
		return nil, err
	}
	return &machinePrep{sp}, nil
}

func setupOrdere(seed int64, sz sizes, tr *tracer) (prepared, error) {
	o := baseOptions(seed, sz)
	o.Workload = ordere.NewScaled(sz.ordereScale)
	o.Shards = sz.ordereShards
	o.PredictFastPath = true
	o.AutoGroupCommit = machine.AutoGCTargetP99
	// Profile a run as long as the figure path's, not one as long as the
	// measured run: training is set-up, and 400 transactions already visit
	// every hot block.
	o.Train.Txns = sz.figTrain
	o.Train.WarmupTxns = sz.figWarm
	return setupMachine(o, sz.ordereTxns, sz.ordereWarm, tr)
}

func setupYCSB(seed int64, sz sizes, tr *tracer) (prepared, error) {
	o := baseOptions(seed, sz)
	// 90% reads, not YCSB's 95%: with 5% updates the 95th percentile sits on
	// the cliff between the read and the update population and jumps 20x
	// from seed to seed; at 10% it is the median update.
	mix := ycsb.New()
	mix.ReadPct = 90
	o.Workload = mix.QuickScale()
	o.Shards = 1
	o.Train.Txns = sz.figTrain * 4 // ycsb transactions are ~10x shorter
	o.Train.WarmupTxns = sz.figWarm
	return setupMachine(o, sz.ycsbTxns, sz.ycsbWarm, tr)
}

// runMachine is one direct simulation: construct, run, audit.
func runMachine(cfg machine.Config, label string, tr *tracer) (simRun, error) {
	var m *machine.Machine
	if err := tr.do("machine.New", func() (err error) {
		m, err = machine.New(cfg)
		return err
	}); err != nil {
		return simRun{}, err
	}
	var res machine.Result
	if err := tr.do("Machine.Run", func() (err error) {
		res, err = m.Run()
		return err
	}); err != nil {
		return simRun{}, err
	}
	if err := tr.do("Machine.CheckInvariants", m.CheckInvariants); err != nil {
		return simRun{}, err
	}
	return simRun{label: label, requested: cfg.Transactions, res: res, lat: m.LatencyByKind()}, nil
}

func (p *machinePrep) run(layout string, tr *tracer) (*repOutcome, error) {
	txns, warm := p.nominal()
	cfg, err := sessionConfig(p.s, layout, txns, warm)
	if err != nil {
		return nil, err
	}
	r, err := runMachine(cfg, layout, tr)
	if err != nil {
		return nil, err
	}
	return &repOutcome{sims: 1, txns: uint64(txns), runs: []simRun{r}}, nil
}

// warmup runs the same machine under the base layout: it warms the process
// and gives the gate the unoptimized reference the subject must beat.
func (p *machinePrep) warmup(tr *tracer) (*repOutcome, error) {
	out, err := p.run("base", tr)
	if err == nil {
		out.base = &out.runs[0]
	}
	return out, err
}

func (p *machinePrep) rep(tr *tracer) (*repOutcome, error) {
	out, err := p.run("all", tr)
	if err == nil {
		out.subject = &out.runs[0]
	}
	return out, err
}

// ---- search-mix ----

type searchPrep struct {
	seed int64
	sz   sizes
	wls  []workload.Workload
	// sessions re-measure the winner after the timed repetitions;
	// search.Run builds and keeps its own.
	sessions []*expt.Session
}

func searchWorkloads() []workload.Workload {
	return []workload.Workload{
		tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}),
		ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}),
		ycsb.NewScaled(ycsb.Scale{Records: 4_000}),
	}
}

// searchOptions is the BenchmarkPipelineSearch session configuration.
func searchOptions(wl workload.Workload, sz sizes) expt.Options {
	o := expt.QuickOptions()
	o.Seed = imageSeed
	o.Transactions = sz.searchTxns
	o.WarmupTxns = sz.searchWarm
	o.Train.Txns = sz.searchTrain
	o.CPUs = 2
	o.ProcsPerCPU = 4
	o.LibScale = sz.searchLib
	o.ColdWords = sz.searchCold
	o.KernColdWords = sz.searchKernCold
	o.FetchStallPenaltyInstr = stallPenalty
	o.Workload = wl
	return o
}

func setupSearch(seed int64, sz sizes, tr *tracer) (prepared, error) {
	p := &searchPrep{seed: seed, sz: sz, wls: searchWorkloads()}
	// The same source search.Run will build from the same options, so the
	// winner re-measured here is the simulation the search scored.
	src, err := newSource(searchOptions(p.wls[0], sz), tr, p.wls[1:]...)
	if err != nil {
		return nil, err
	}
	for _, wl := range p.wls {
		eo := searchOptions(wl, sz)
		eo.Train.Workload = p.wls[0]
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			return nil, err
		}
		p.sessions = append(p.sessions, s)
	}
	if err := trainAndLayout(p.sessions[0], tr, "base", "ipchain", "fusion"); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *searchPrep) warmup(*tracer) (*repOutcome, error) { return nil, nil }

func (p *searchPrep) rep(tr *tracer) (*repOutcome, error) {
	cfg := search.Config{
		Population: p.sz.searchPop, Generations: p.sz.searchGens,
		Seed: p.seed, Workers: procs(),
		Objective: search.ObjectiveInstrPerTxn,
	}
	for _, wl := range p.wls {
		cfg.Workloads = append(cfg.Workloads, search.WorkloadWeight{Workload: wl, Weight: 1})
	}
	// One child span per generation: Progress fires when a generation has
	// been evaluated, so each span runs from the previous boundary.
	var prev int64
	if tr != nil {
		cfg.Progress = func(g search.GenerationStat) {
			now := tr.now()
			tr.child(fmt.Sprintf("search.generation.%d", g.Gen), prev, now)
			prev = now
		}
	}
	var res *search.Result
	if err := tr.do("search.Run", func() (err error) {
		if tr != nil {
			prev = tr.now()
		}
		res, err = search.Run(searchOptions(p.wls[0], p.sz), cfg)
		return err
	}); err != nil {
		return nil, err
	}
	return &repOutcome{
		sims:   int(res.Executed),
		txns:   res.Executed * uint64(p.sz.searchTxns),
		search: res,
		extra:  searchDigest(res),
	}, nil
}

// searchDigest renders everything of a search result that must repeat
// exactly for one seed.
func searchDigest(r *search.Result) string {
	s := fmt.Sprintf("winner=%s fit=%v req=%d uniq=%d exec=%d early=%t", r.Winner.Spec, r.Winner.Fitness, r.Requested, r.Unique, r.Executed, r.StoppedEarly)
	for _, list := range [][]search.Scored{r.Baselines, r.HallOfFame} {
		for _, sc := range list {
			names := make([]string, 0, len(sc.PerWorkload))
			for n := range sc.PerWorkload {
				names = append(names, n)
			}
			sort.Strings(names)
			s += fmt.Sprintf("|%s=%v", sc.Spec, sc.Fitness)
			for _, n := range names {
				s += fmt.Sprintf(",%s:%v", n, sc.PerWorkload[n])
			}
		}
	}
	for _, g := range r.Trajectory {
		s += fmt.Sprintf("|g%d:%v/%d/%d/%d", g.Gen, g.Best.Fitness, g.Requested, g.Unique, g.Executed)
	}
	return s
}

// finish re-measures the winner, untimed, on each evaluation workload; the
// runs join the outcome so the gate audits them and the sim_* metrics can be
// their geometric mean.
func (p *searchPrep) finish(last *repOutcome, tr *tracer) error {
	for i, s := range p.sessions {
		var m *expt.Measure
		if err := tr.do("Session.Measure.winner."+p.wls[i].Name(), func() (err error) {
			m, err = s.Measure(last.search.Winner.Spec, s.Opt.CPUs)
			return err
		}); err != nil {
			return err
		}
		last.runs = append(last.runs, simRun{label: "winner/" + p.wls[i].Name(), requested: s.Opt.Transactions, res: m.Res, lat: m.Latency})
	}
	return nil
}

func (p *searchPrep) subjectConfig(last *repOutcome, txns, warm int) (machine.Config, error) {
	return sessionConfig(p.sessions[0], last.search.Winner.Spec, txns, warm)
}

func (p *searchPrep) sourceOptions() (expt.Options, []workload.Workload) {
	return searchOptions(p.wls[0], p.sz), p.wls[1:]
}
func (p *searchPrep) session() *expt.Session { return p.sessions[0] }
func (p *searchPrep) nominal() (int, int)    { return p.sz.searchTxns, p.sz.searchWarm }

// ---- simulated-clock metrics ----

// simMetrics are the four simulated-clock end-to-end numbers of one run.
type simMetrics struct {
	instrStallPerTxn, l1iMPKI, p50, p95 float64
}

func simMetricsOf(r machine.Result) simMetrics {
	return simMetrics{
		instrStallPerTxn: float64(r.BusyInstrs+r.FetchStallInstr) / float64(r.Committed),
		l1iMPKI:          float64(r.FetchStallInstr) / stallPenalty / float64(r.BusyInstrs) * 1000,
		p50:              float64(r.Latency.P50),
		p95:              float64(r.Latency.P95),
	}
}

// geoMean folds several runs' metrics into their geometric mean.
func geoMean(ms []simMetrics) simMetrics {
	var a, b, c, d float64
	for _, m := range ms {
		a += math.Log(m.instrStallPerTxn)
		b += math.Log(m.l1iMPKI)
		c += math.Log(m.p50)
		d += math.Log(m.p95)
	}
	n := float64(len(ms))
	return simMetrics{math.Exp(a / n), math.Exp(b / n), math.Exp(c / n), math.Exp(d / n)}
}

// subjectMetrics returns the sim_* numbers of an outcome: the subject run's,
// or on search-mix the geometric mean over the winner's re-measured runs.
// A run that failed before it produced a subject reports zeros.
func subjectMetrics(o *repOutcome) simMetrics {
	if o == nil || o.subject == nil && len(o.runs) == 0 {
		return simMetrics{}
	}
	if o.subject != nil {
		return simMetricsOf(o.subject.res)
	}
	ms := make([]simMetrics, 0, len(o.runs))
	for _, r := range o.runs {
		ms = append(ms, simMetricsOf(r.res))
	}
	return geoMean(ms)
}

// subjectResult is the run the per-layer counts (aborts, flushes, cross-shard
// transactions) are read from: the subject, or the winner on the training
// workload.
func subjectResult(o *repOutcome) machine.Result {
	if o.subject != nil {
		return o.subject.res
	}
	return o.runs[0].res
}
