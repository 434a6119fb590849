package machine_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// frontRun is everything a run shows of itself: the result, the latency
// cells, and — when it was observed — the measured fetch stream in machine
// order and the two Pixie profiles at rest.
type frontRun struct {
	res       machine.Result
	lat       []machine.TxnLatency
	runs      []trace.FetchRun
	app, kern []byte
}

type runLog []trace.FetchRun

func (l *runLog) Fetch(r trace.FetchRun) { *l = append(*l, r) }

// runFront runs cfg once: through the emitter's Front, or rewired onto the
// per-run reference front. Observed, it records Config.Sinks and attaches a
// Pixie as AppCollector and as KernCollector; unobserved, nothing is attached
// and the walk runs with no Sink at all. The reference's own instruction
// counts (the old per-run accounting) come back in place of the ones the
// machine reads off the emitters' totals.
func runFront(t *testing.T, cfg machine.Config, reference, observed bool) frontRun {
	t.Helper()
	var log runLog
	var apx, kpx *profile.Pixie
	var sinks []trace.Sink
	if observed {
		sinks = []trace.Sink{&log}
		apx, kpx = profile.NewPixie(cfg.AppImage.Prog, "app"), profile.NewPixie(cfg.KernImage.Prog, "kern")
		cfg.AppCollector, cfg.KernCollector = apx, kpx
	}
	var ref *machine.ReferenceFront
	if !reference {
		cfg.Sinks = sinks
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		ref = machine.AttachReferenceFront(m, sinks)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if reference {
		res.AppInstrs, res.KernelInstrs, res.FetchStallInstr = ref.App, ref.Kernel, ref.Stall
		res.BusyInstrs = ref.App + ref.Kernel
	}
	out := frontRun{res: res, lat: m.LatencyByKind(), runs: log}
	if observed {
		out.app, _ = apx.Profile().GobEncode()
		out.kern, _ = kpx.Profile().GobEncode()
	}
	return out
}

// checkFront holds one configuration's run through the Front to its run
// through the reference front, observed and unobserved, and returns the
// observed run they agree on.
func checkFront(t *testing.T, mk func() machine.Config) (seen frontRun) {
	t.Helper()
	for _, observed := range []bool{true, false} {
		got, want := runFront(t, mk(), false, observed), runFront(t, mk(), true, observed)
		what := "unobserved"
		if observed {
			what = "observed"
		}
		if got.res != want.res {
			t.Errorf("%s: results differ:\n got %+v\nwant %+v", what, got.res, want.res)
		}
		if want.res.AppInstrs == 0 || want.res.KernelInstrs == 0 {
			t.Errorf("%s: the reference counted %d application and %d kernel instructions", what, want.res.AppInstrs, want.res.KernelInstrs)
		}
		if !reflect.DeepEqual(got.lat, want.lat) {
			t.Errorf("%s: latency cells differ", what)
		}
		if !observed {
			continue
		}
		seen = got
		if len(want.runs) == 0 {
			t.Fatal("the reference fed its sinks nothing")
		}
		for i := range want.runs {
			if i >= len(got.runs) || got.runs[i] != want.runs[i] {
				t.Errorf("sink stream differs at run %d of %d (got %d runs)", i, len(want.runs), len(got.runs))
				break
			}
		}
		if len(got.runs) > len(want.runs) {
			t.Errorf("sinks saw %d runs, the reference's %d", len(got.runs), len(want.runs))
		}
		if !bytes.Equal(got.app, want.app) {
			t.Error("application Pixie profile differs")
		}
		if !bytes.Equal(got.kern, want.kern) {
			t.Error("kernel Pixie profile differs")
		}
	}
	return seen
}

// TestFrontMatchesReference is the whole-run oracle for the emitter's Front:
// on every path the machine has — plain, sharded with 2PC, the fast path and
// the p99 group-commit tuner, read-mostly, with and without the inline stall
// model — a run fetched through the Front is, to the last sink event, profile
// byte and latency cell, the run the per-run callback front produced.
func TestFrontMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	tb := smallWorkload(t, "tpcb")
	tbApp, tbAppL, tbKern, tbKernL := testImages(t, tb)
	oe := shardWorkload(t, "ordere")
	oeApp, oeAppL, oeKern, oeKernL := fastImages(t, oe)
	kv := ycsb.NewScaled(ycsb.Scale{Records: 4000})
	kvApp, kvAppL, kvKern, kvKernL := testImages(t, kv)
	for _, stall := range []uint64{0, 40} {
		// Short quanta and timer periods put many yields and interrupts
		// inside the runs being compared.
		shape := func(cfg machine.Config) machine.Config {
			cfg.CPUs, cfg.ProcsPerCPU = 2, 4
			cfg.WarmupTxns, cfg.Transactions = 20, 120
			cfg.FetchStallPenaltyInstr = stall
			cfg.QuantumInstr, cfg.TimerIntervalInstr = 3_000, 7_000
			return cfg
		}
		t.Run(fmt.Sprintf("tpcb-stall%d", stall), func(t *testing.T) {
			checkFront(t, func() machine.Config { return shape(configFor(tb, tbApp, tbAppL, tbKern, tbKernL)) })
		})
		t.Run(fmt.Sprintf("ordere-4shards-fastpath-p99-stall%d", stall), func(t *testing.T) {
			checkFront(t, func() machine.Config {
				cfg := shape(configFor(oe, oeApp, oeAppL, oeKern, oeKernL))
				cfg.Shards, cfg.PredictFastPath, cfg.AutoGroupCommit = 4, true, machine.AutoGCTargetP99
				return cfg
			})
		})
		t.Run(fmt.Sprintf("ycsb-stall%d", stall), func(t *testing.T) {
			checkFront(t, func() machine.Config { return shape(configFor(kv, kvApp, kvAppL, kvKern, kvKernL)) })
		})
	}
}

// TestFrontMatchesReferenceAcrossHotSwap: a re-optimizing run swaps every
// process emitter onto the retrained layout mid-run, and the Front-fetched run
// must pick up the new layout's placement words. Both fronts are fed by the
// same walk, so that half is checked against the layouts themselves: the tail
// of the measured application stream starts every run where the retrained
// layout starts one, and some of it where the trained layout does not.
func TestFrontMatchesReferenceAcrossHotSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	app, appL, kern, kernL := reoptImages(t)
	trained, trainFreq := trainReadOnlyLayout(t, app, appL, kern, kernL)
	swaps := 0
	var retrained *program.Layout
	seen := checkFront(t, func() machine.Config {
		cfg := servingConfig(app, trained, kern, kernL)
		cfg.Transactions = 500
		retrain := reoptimizer(t, app, &swaps)
		cfg.Reopt = &machine.Reoptimizer{Every: 60, TrainMix: trainFreq,
			Retrain: func(pf *profile.Profile) (l *program.Layout, err error) {
				retrained, err = retrain(pf)
				return retrained, err
			}}
		return cfg
	})
	if swaps < 4 || seen.res.Reopts == 0 {
		t.Fatalf("%d retrains over four runs, %d swaps in the last; every run must hot-swap", swaps, seen.res.Reopts)
	}
	var tail []trace.FetchRun
	for i := len(seen.runs) - 1; i >= 0 && len(tail) < 2000; i-- {
		if !seen.runs[i].Kernel {
			tail = append(tail, seen.runs[i])
		}
	}
	before, after := runStarts(trained), runStarts(retrained)
	moved := 0
	for _, r := range tail {
		if !after[r.Addr] {
			t.Fatalf("after the swap the walk fetched a run at %#x, where the retrained layout starts none", r.Addr)
		}
		if !before[r.Addr] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every run of the tail starts where the trained layout starts one; the swap moved nothing")
	}
}

// runStarts is every address a fetched run can start at under l: a block's
// first word, or the landing branch behind a call.
func runStarts(l *program.Layout) map[uint64]bool {
	starts := make(map[uint64]bool, 2*len(l.Place))
	for b, w := range l.Place {
		starts[w.Addr()] = true
		if landing, _, ok := l.LandingRun(program.BlockID(b)); ok {
			starts[landing] = true
		}
	}
	return starts
}

// TestFrontMatchesReferenceUnderDeadlockVictims: a deadlock victim's emitter
// is Reset in the middle of a function and replays txn_abort from idle; the
// Front's budget and clock carry straight through it.
func TestFrontMatchesReferenceUnderDeadlockVictims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 40})
	wl.CrossShardPct = 40
	app, appL, kern, kernL := testImages(t, wl)
	res := checkFront(t, func() machine.Config {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Shards, cfg.CPUs, cfg.ProcsPerCPU = 2, 2, 16
		cfg.WarmupTxns, cfg.Transactions = 40, 400
		cfg.FetchStallPenaltyInstr = 40
		cfg.QuantumInstr = 20_000
		return cfg
	})
	if res.res.Aborted == 0 {
		t.Fatal("the run aborted no deadlock victim")
	}
}

// gateWorkload calls check at the start of every transaction, inside the
// process that runs it.
type gateWorkload struct {
	workload.Workload
	check func()
}

func (w gateWorkload) Load(engs []*db.Engine) (workload.Instance, error) {
	inst, err := w.Workload.Load(engs)
	return gateInstance{Instance: inst, check: w.check}, err
}

type gateInstance struct {
	workload.Instance
	check func()
}

func (g gateInstance) RunTxn(ss []*db.Session, in workload.Input) {
	g.check()
	g.Instance.RunTxn(ss, in)
}

type dataCount int

func (c *dataCount) Data(trace.DataRef) { *c++ }

// TestGateAttachesObserversOnlyWhileOpen: the measuring gate is the one place
// observers come on and off. The run configures both collectors and a data
// sink, yet during warmup, and in the drain after the gate closes, no emitter
// has a Collector or an OnData hook; while the gate is open every emitter has
// them.
func TestGateAttachesObserversOnlyWhileOpen(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	var m *machine.Machine
	var warm, open int
	var cfg machine.Config
	check := func() {
		cols, onData, measuring := m.Observers()
		procs := cfg.CPUs * cfg.ProcsPerCPU
		switch {
		case !measuring:
			warm++
			if cols != 0 || onData != 0 {
				t.Fatalf("gate closed, yet %d emitters have a Collector and %d an OnData hook", cols, onData)
			}
		case cols != procs+cfg.CPUs || onData != procs:
			t.Fatalf("gate open, yet %d of %d emitters have a Collector and %d of %d an OnData hook",
				cols, procs+cfg.CPUs, onData, procs)
		default:
			open++
		}
	}
	cfg = configFor(gateWorkload{Workload: wl, check: check}, app, appL, kern, kernL)
	cfg.CPUs = 2
	apx := profile.NewPixie(app.Prog, "app")
	cfg.AppCollector, cfg.KernCollector = apx, profile.NewPixie(kern.Prog, "kern")
	var refs dataCount
	cfg.DataSinks = []trace.DataSink{&refs}
	var err error
	if m, err = machine.New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if warm == 0 || open == 0 {
		t.Fatalf("%d transactions began with the gate closed, %d with it open; want both", warm, open)
	}
	if cols, onData, measuring := m.Observers(); cols != 0 || onData != 0 || measuring {
		t.Fatalf("after Run: %d collectors, %d OnData hooks, gate open %v", cols, onData, measuring)
	}
	if refs == 0 || apx.Profile().TotalBlocks() == 0 {
		t.Fatalf("the measured phase did not reach the observers: %d data references, %d blocks", refs, apx.Profile().TotalBlocks())
	}
}

// TestRunErrorReportsInstructionsSoFar: the measured instruction counts are
// differences of running totals read when the gate closes; a Run that fails
// mid-measurement still closes it.
func TestRunErrorReportsInstructionsSoFar(t *testing.T) {
	cfg := crashConfig(t)
	cfg.WarmupTxns = 5
	cfg.FetchStallPenaltyInstr = 40
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "boom in RunTxn") {
		t.Fatalf("Run error = %v, want the process panic", err)
	}
	if res.AppInstrs == 0 || res.KernelInstrs == 0 || res.FetchStallInstr == 0 {
		t.Fatalf("failed Run reports app %d, kernel %d, stall %d instructions; the counts up to the error are lost",
			res.AppInstrs, res.KernelInstrs, res.FetchStallInstr)
	}
}

// TestQuantumBeyondInt64IsRejected: the quantum counts down in a signed
// budget; a value that would start negative used to preempt on every run.
func TestQuantumBeyondInt64IsRejected(t *testing.T) {
	cfg := testSetup(t, "tpcb")
	cfg.QuantumInstr = math.MaxInt64 + 1
	if _, err := machine.New(cfg); err == nil || !strings.Contains(err.Error(), "QuantumInstr") {
		t.Fatalf("New error = %v, want QuantumInstr rejected", err)
	}
	cfg.QuantumInstr = math.MaxInt64
	if err := cfg.Validate(); err != nil {
		t.Fatalf("QuantumInstr = MaxInt64: %v", err)
	}
}

// TestStallPenaltyCeiling: a fetch-stall penalty past its ceiling would let
// the stall total wrap the clock; the ceiling itself is accepted.
func TestStallPenaltyCeiling(t *testing.T) {
	cfg := testSetup(t, "tpcb")
	cfg.FetchStallPenaltyInstr = machine.MaxFetchStallPenaltyInstr + 1
	if _, err := machine.New(cfg); err == nil || !strings.Contains(err.Error(), "FetchStallPenaltyInstr") {
		t.Fatalf("New error = %v, want FetchStallPenaltyInstr rejected", err)
	}
	cfg.FetchStallPenaltyInstr = machine.MaxFetchStallPenaltyInstr
	if err := cfg.Validate(); err != nil {
		t.Fatalf("FetchStallPenaltyInstr at its ceiling: %v", err)
	}
}
