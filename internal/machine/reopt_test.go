package machine_test

import (
	"math"
	"strings"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/ycsb"
)

// reoptWorkload is the forced-drift setup the re-optimization tests share: a
// read-only key-value mix that flips to pure updates mid-run. The update
// path (txn_begin, locks, heap update, commit, log) is code a read-trained
// layout scattered into the cold text, so the drift genuinely degrades
// fetch locality until a retrain.
func reoptWorkload(shiftAfter int) *ycsb.Workload {
	return &ycsb.Workload{
		Scale:          ycsb.Scale{Records: 4000},
		ReadPct:        100,
		ShiftAfterGens: shiftAfter,
		ShiftReadPct:   0,
	}
}

// reoptImages builds one app+kernel image pair shared by the training and
// serving runs (hot-swapped layouts must belong to the same program). Unlike
// the smaller testImages build, this one uses full-size library code so the
// hot working set pressures the 64 KB L1I — the conflict-miss regime where
// layout choice actually moves the tail, which the drift tests depend on.
func reoptImages(t *testing.T) (*codegen.Image, *program.Layout, *codegen.Image, *program.Layout) {
	t.Helper()
	app, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 1.0, ColdWords: 400_000, Workload: reoptWorkload(0)})
	if err != nil {
		t.Fatal(err)
	}
	appL, err := program.BaselineLayout(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.Build(kernel.Config{Seed: 43, ColdWords: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := program.BaselineLayout(kern.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return app, appL, kern, kernL
}

// trainReadOnlyLayout runs the pre-drift (read-only) mix under a Pixie
// collector and optimizes a layout from it, returning the layout and the
// training kind mix — exactly what a profile-store entry would supply.
func trainReadOnlyLayout(t *testing.T, app *codegen.Image, appL *program.Layout, kern *codegen.Image, kernL *program.Layout) (*program.Layout, map[string]float64) {
	t.Helper()
	px := profile.NewPixie(app.Prog, "train")
	cfg := machine.Config{
		CPUs: 1, ProcsPerCPU: 4, Seed: 7,
		WarmupTxns: 10, Transactions: 120,
		Workload: reoptWorkload(0),
		AppImage: app, AppLayout: appL,
		KernImage: kern, KernLayout: kernL,
		AppCollector: px,
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	l, err := coreOptimize(app, px.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return l, m.KindFrequencies()
}

// servingConfig is the drifting serving run: the read-trained layout, the
// inline fetch-stall clock so layout quality reaches latency, and a log
// write cheap enough that code locality (not the log) owns the tail.
func servingConfig(app *codegen.Image, trained *program.Layout, kern *codegen.Image, kernL *program.Layout) machine.Config {
	return machine.Config{
		CPUs: 1, ProcsPerCPU: 4, Seed: 7,
		WarmupTxns: 10, Transactions: 900,
		Workload:               reoptWorkload(180),
		AppImage:               app,
		AppLayout:              trained,
		KernImage:              kern,
		KernLayout:             kernL,
		FetchStallPenaltyInstr: 250,
		LogWriteDelayInstr:     4_000,
		PreadDelayInstr:        4_000,
	}
}

func reoptimizer(t *testing.T, app *codegen.Image, retrained *int) func(*profile.Profile) (*program.Layout, error) {
	return func(pf *profile.Profile) (*program.Layout, error) {
		*retrained++
		if pf.TotalBlocks() == 0 {
			t.Error("Reoptimize called with an empty online profile")
		}
		return coreOptimize(app, pf)
	}
}

// kindP99 pulls one transaction kind's p99 out of a finished run.
func kindP99(t *testing.T, m *machine.Machine, kind string) uint64 {
	t.Helper()
	for _, c := range m.LatencyByKind() {
		if c.Kind == kind {
			return c.Summary.P99
		}
	}
	t.Fatalf("no %q latency cell recorded", kind)
	return 0
}

func coreOptimize(app *codegen.Image, pf *profile.Profile) (*program.Layout, error) {
	pl, err := core.ComboPipeline("all")
	if err != nil {
		return nil, err
	}
	l, _, err := pl.Run(app.Prog, pf)
	return l, err
}

// TestReoptRecoversP99AfterDrift is the pinned headline regression: under a
// forced read→update mix shift, the re-optimizing run's post-swap p99 must
// strictly beat the frozen-layout baseline's p99 at the same seed.
func TestReoptRecoversP99AfterDrift(t *testing.T) {
	app, appL, kern, kernL := reoptImages(t)
	trained, trainFreq := trainReadOnlyLayout(t, app, appL, kern, kernL)
	if trainFreq["read"] < 0.99 {
		t.Fatalf("training mix should be read-only, got %v", trainFreq)
	}

	base := servingConfig(app, trained, kern, kernL)
	mBase, err := machine.New(base)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := mBase.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := mBase.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The pre-shift mix is 100% reads, so every update the baseline observed
	// ran post-shift on the stale layout: its update-kind p99 is exactly the
	// drifted-traffic tail the re-optimizing run's post-swap window covers.
	baseUpdateP99 := kindP99(t, mBase, "update")

	retrained := 0
	reopt := servingConfig(app, trained, kern, kernL)
	reopt.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: trainFreq, Retrain: reoptimizer(t, app, &retrained)}
	mRe, err := machine.New(reopt)
	if err != nil {
		t.Fatal(err)
	}
	reRes, err := mRe.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := mRe.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after hot-swap: %v", err)
	}

	if baseRes.Reopts != 0 || baseRes.SwapStallInstr != 0 || baseRes.PostSwapP99 != 0 {
		t.Fatalf("baseline reported reopt activity: %+v", baseRes)
	}
	if reRes.Reopts == 0 || retrained == 0 {
		t.Fatalf("drift never triggered a retrain (Reopts=%d, retrained=%d)", reRes.Reopts, retrained)
	}
	if reRes.SwapStallInstr == 0 {
		t.Error("hot-swap reported zero stall — the fence charged nothing")
	}
	if reRes.PreSwapP99 == 0 || reRes.PostSwapP99 == 0 {
		t.Fatalf("swap percentiles missing: pre=%d post=%d", reRes.PreSwapP99, reRes.PostSwapP99)
	}
	if reRes.PostSwapP99 >= baseUpdateP99 {
		t.Fatalf("post-swap p99 = %d, want strictly below the no-reopt baseline's post-shift (update) p99 = %d",
			reRes.PostSwapP99, baseUpdateP99)
	}
	t.Logf("baseline update p99 = %d (overall %d); reopt: pre-swap p99 = %d, post-swap p99 = %d, reopts = %d, swap stall = %d",
		baseUpdateP99, baseRes.Latency.P99, reRes.PreSwapP99, reRes.PostSwapP99, reRes.Reopts, reRes.SwapStallInstr)
}

// transitionLog is an AppCollector that keeps every measured-phase block
// transition in machine order.
type transitionLog [][2]program.BlockID

func (tl *transitionLog) Block(src, b program.BlockID) {
	*tl = append(*tl, [2]program.BlockID{src, b})
}

// TestReoptProfileIsTheDriftWindow: the profile the retrainer is handed is
// the online collector's window since drift was detected — measured edges
// and all, nothing from before the reset — and equals, by fingerprint, what a
// map collector counts over the same transitions. (A collector read without
// its edges passes every other test here: EnsureEdges estimates them and the
// swap still lands.)
func TestReoptProfileIsTheDriftWindow(t *testing.T) {
	app, appL, kern, kernL := reoptImages(t)
	trained, trainFreq := trainReadOnlyLayout(t, app, appL, kern, kernL)
	readEntry := app.Fns["ycsb_read"].Proc.Entry()

	cfg := servingConfig(app, trained, kern, kernL)
	cfg.Transactions = 360 // the shift at 180, one window to notice, one to collect
	var log transitionLog
	cfg.AppCollector = &log
	calls := 0
	retrain := func(pf *profile.Profile) (*program.Layout, error) {
		calls++
		if !pf.HasEdges() {
			t.Error("Reoptimize was handed a profile with no measured edges")
		}
		// The window lies inside the measured phase, where the gated log and
		// the ungated online collector see the same transitions: it is the
		// log's last TotalBlocks entries.
		n := int(pf.TotalBlocks())
		if n == 0 || n >= len(log) {
			t.Fatalf("online profile holds %d block executions, the measured phase so far %d: not a window that began at a reset", n, len(log))
		}
		before, window := log[:len(log)-n], log[len(log)-n:]
		ref := profile.New(pf.Name, app.Prog)
		for _, tr := range window {
			ref.AddBlock(tr[1], 1)
			if tr[0] != program.NoBlock {
				ref.AddEdge(tr[0], tr[1], 1)
			}
		}
		if got, want := pf.Fingerprint(), ref.Fingerprint(); got != want {
			t.Errorf("online profile fingerprint %x, a map collector over the same %d transitions gives %x", got, n, want)
		}
		// The mix was all reads until the shift and the reset came a whole
		// window after it: reads ran before the window and none inside it.
		reads := 0
		for _, tr := range before {
			if tr[1] == readEntry {
				reads++
			}
		}
		if reads == 0 || pf.Count(readEntry) != 0 {
			t.Errorf("read transactions: %d before the window, %d counted in it; want some and none", reads, pf.Count(readEntry))
		}
		return coreOptimize(app, pf)
	}
	cfg.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: trainFreq, Retrain: retrain}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res.Reopts != 1 {
		t.Fatalf("forced drift: %d Reoptimize calls, %d swaps; want one of each", calls, res.Reopts)
	}
}

// TestReoptDisabledBitIdentical: a nil Reopt is the only way to leave the
// loop off, and a loop that watches every commit but never retrains (Drift 2:
// no mix lies further than that) must leave the run bit-identical to it — the
// online profile and the drift monitor cost no simulated time.
func TestReoptDisabledBitIdentical(t *testing.T) {
	app, appL, kern, kernL := reoptImages(t)
	plain := servingConfig(app, appL, kern, kernL)
	mP, err := machine.New(plain)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := mP.Run()
	if err != nil {
		t.Fatal(err)
	}

	armed := servingConfig(app, appL, kern, kernL)
	armed.Reopt = &machine.Reoptimizer{Every: 60, Drift: 2, TrainMix: map[string]float64{"read": 1},
		Retrain: func(pf *profile.Profile) (*program.Layout, error) {
			t.Error("Retrain called past a drift threshold of 2")
			return nil, nil
		}}
	mA, err := machine.New(armed)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := mA.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resP != resA {
		t.Fatalf("a re-optimizer that never retrains changed the run:\n plain: %+v\n armed: %+v", resP, resA)
	}
}

// TestReoptDeterministic: the whole drift-retrain-swap cycle replays
// bit-identically for a fixed seed.
func TestReoptDeterministic(t *testing.T) {
	app, appL, kern, kernL := reoptImages(t)
	trained, trainFreq := trainReadOnlyLayout(t, app, appL, kern, kernL)
	run := func() machine.Result {
		n := 0
		cfg := servingConfig(app, trained, kern, kernL)
		cfg.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: trainFreq, Retrain: reoptimizer(t, app, &n)}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("re-optimizing runs diverged:\n a: %+v\n b: %+v", a, b)
	}
	if a.Reopts == 0 {
		t.Fatal("determinism check exercised no swap")
	}
}

// TestReoptStableMixNoSwap: without drift the monitor must never fire.
func TestReoptStableMixNoSwap(t *testing.T) {
	app, appL, kern, kernL := reoptImages(t)
	cfg := servingConfig(app, appL, kern, kernL)
	cfg.Workload = reoptWorkload(0) // no shift
	cfg.Transactions = 300
	cfg.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: map[string]float64{"read": 1},
		Retrain: func(pf *profile.Profile) (*program.Layout, error) {
			t.Error("Retrain called on a stable mix")
			return coreOptimize(app, pf)
		}}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 0 || res.SwapStallInstr != 0 {
		t.Fatalf("stable mix swapped: %+v", res)
	}
}

// TestReoptValidation: every Reoptimizer that cannot run is refused before
// any engine loads, naming the field; NaN compares false with everything, so
// a range check written the other way round lets it through.
func TestReoptValidation(t *testing.T) {
	wl := reoptWorkload(0)
	app, appL, kern, kernL := testImages(t, wl)
	ok := func() *machine.Reoptimizer {
		return &machine.Reoptimizer{Every: 50, TrainMix: map[string]float64{"read": 1},
			Retrain: func(*profile.Profile) (*program.Layout, error) { return nil, nil }}
	}
	cases := []struct {
		name string
		mut  func(*machine.Reoptimizer)
		want string
	}{
		{"zero period", func(r *machine.Reoptimizer) { r.Every = 0 }, "Reopt.Every = 0"},
		{"negative period", func(r *machine.Reoptimizer) { r.Every = -1 }, "Reopt.Every = -1"},
		{"no hook", func(r *machine.Reoptimizer) { r.Retrain = nil }, "Reopt.Retrain is required"},
		{"drift above 2", func(r *machine.Reoptimizer) { r.Drift = 2.5 }, "Reopt.Drift = 2.5"},
		{"negative drift", func(r *machine.Reoptimizer) { r.Drift = -0.1 }, "Reopt.Drift = -0.1"},
		{"NaN drift", func(r *machine.Reoptimizer) { r.Drift = math.NaN() }, "Reopt.Drift = NaN"},
		{"negative mix", func(r *machine.Reoptimizer) { r.TrainMix["read"] = -1 }, `Reopt.TrainMix["read"] = -1`},
		{"NaN mix", func(r *machine.Reoptimizer) { r.TrainMix["update"] = math.NaN() }, `Reopt.TrainMix["update"] = NaN`},
	}
	for _, tc := range cases {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Reopt = ok()
		tc.mut(cfg.Reopt)
		_, err := machine.New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.Reopt = ok()
	if _, err := machine.New(cfg); err != nil {
		t.Fatalf("valid Reoptimizer rejected: %v", err)
	}
}

func TestKindDistance(t *testing.T) {
	cases := []struct {
		a, b map[string]float64
		want float64
	}{
		{map[string]float64{"r": 1}, map[string]float64{"r": 1}, 0},
		{map[string]float64{"r": 1}, map[string]float64{"u": 1}, 2},
		{map[string]float64{"r": 0.5, "u": 0.5}, map[string]float64{"r": 1}, 1},
		{nil, nil, 0},
	}
	for _, tc := range cases {
		if got := machine.KindDistance(tc.a, tc.b); !approx(got, tc.want) {
			t.Errorf("KindDistance(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := machine.KindDistance(tc.b, tc.a); !approx(got, tc.want) {
			t.Errorf("KindDistance not symmetric for %v, %v", tc.a, tc.b)
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
