package machine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/program"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// fastImages builds an app+kernel image pair with the predictor's decision
// code in the app image, as PredictFastPath requires.
func fastImages(t *testing.T, wl workload.Workload) (*codegen.Image, *program.Layout, *codegen.Image, *program.Layout) {
	t.Helper()
	app, err := appmodel.Build(appmodel.Config{
		Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl, FastPath: true,
	})
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

// alwaysLocal is the forced-mispredict stub: it claims every transaction is
// single-shard, so every cross-shard transaction takes the fast path and must
// discover its remote access, abort, and retry distributed.
type alwaysLocal struct{}

func (alwaysLocal) Observe(string, int, bool) {}
func (alwaysLocal) Local(string, int) bool    { return true }

// TestFastPathEndToEnd runs all three sharded workloads at 4 shards with the
// trained predictor: every transaction must commit, a nonzero fraction must
// take the fast path, the cross-shard invariants must hold, and a rerun must
// be bit-identical.
func TestFastPathEndToEnd(t *testing.T) {
	wls := map[string]workload.Workload{
		"tpcb":   shardWorkload(t, "tpcb"),
		"ordere": shardWorkload(t, "ordere"),
		"ycsb":   ycsb.NewScaled(ycsb.Scale{Records: 4000}),
	}
	for name, wl := range wls {
		wl := wl
		t.Run(name, func(t *testing.T) {
			app, appL, kern, kernL := fastImages(t, wl)
			run := func() machine.Result {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = 4
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 6
				cfg.WarmupTxns = 40
				cfg.Transactions = 120
				cfg.PredictFastPath = true
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("invariants with fast path: %v", err)
				}
				return res
			}
			r1 := run()
			if r1.Committed != 120 {
				t.Fatalf("committed = %d", r1.Committed)
			}
			if r1.Predicted == 0 {
				t.Fatal("trained predictor never took the fast path")
			}
			if r1.Mispredicted > r1.Predicted {
				t.Fatalf("mispredicted %d > predicted %d", r1.Mispredicted, r1.Predicted)
			}
			if r2 := run(); r1 != r2 {
				t.Fatalf("fast-path runs diverge:\n%+v\n%+v", r1, r2)
			}
			t.Logf("%s: predicted=%d mispredicted=%d cross=%d aborts=%d",
				name, r1.Predicted, r1.Mispredicted, r1.CrossShard, r1.Aborted)
		})
	}
}

// TestWrappedInstanceKeepsFastPathAndKinds: an Instance wrapper that embeds
// workload.Instance (the shape of the crash and gate wrappers) takes the fast
// path and labels its kinds exactly as the bare instance does, under the p99
// group-commit tuner that reads those labels.
func TestWrappedInstanceKeepsFastPathAndKinds(t *testing.T) {
	wl := shardWorkload(t, "ordere")
	app, appL, kern, kernL := fastImages(t, wl)
	run := func(w workload.Workload) (machine.Result, []machine.TxnLatency) {
		cfg := configFor(w, app, appL, kern, kernL)
		cfg.Shards, cfg.CPUs, cfg.ProcsPerCPU = 4, 2, 6
		cfg.WarmupTxns, cfg.Transactions = 40, 120
		cfg.PredictFastPath, cfg.AutoGroupCommit = true, machine.AutoGCTargetP99
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, m.LatencyByKind()
	}
	bare, bareLat := run(wl)
	wrapped, wrappedLat := run(gateWorkload{Workload: wl, check: func() {}})
	if bare.Predicted == 0 {
		t.Fatal("the bare instance never took the fast path")
	}
	if bare != wrapped {
		t.Fatalf("wrapped instance diverges:\n%+v\n%+v", bare, wrapped)
	}
	if !reflect.DeepEqual(bareLat, wrappedLat) {
		t.Fatalf("wrapped instance's latency cells differ:\n%+v\n%+v", bareLat, wrappedLat)
	}
}

// TestForcedMispredictRetriesDistributed is the misprediction-path audit: an
// always-local stub predictor forces every cross-shard transaction through
// the fast path, where it must discover the remote access, abort through the
// instrumented unwind, and deterministically retry distributed. Every
// transaction still commits, conservation holds, and results are
// bit-identical across repeated runs at each CPU count.
func TestForcedMispredictRetriesDistributed(t *testing.T) {
	wl := shardWorkload(t, "tpcb")
	app, appL, kern, kernL := fastImages(t, wl)
	for _, cpus := range []int{1, 2} {
		cpus := cpus
		t.Run(fmt.Sprintf("cpus%d", cpus), func(t *testing.T) {
			run := func() machine.Result {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = 2
				cfg.CPUs = cpus
				cfg.ProcsPerCPU = 6
				cfg.WarmupTxns = 20
				cfg.Transactions = 150
				cfg.PredictFastPath = true
				cfg.Predictor = alwaysLocal{}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("invariants after forced mispredicts: %v", err)
				}
				return res
			}
			r1 := run()
			if r1.Mispredicted == 0 {
				t.Fatal("always-local stub produced no mispredicts at the default cross-shard fraction")
			}
			if r1.Committed != 150 {
				t.Fatalf("committed = %d; mispredicted transactions must retry to completion", r1.Committed)
			}
			if r1.Aborted < r1.Mispredicted {
				t.Fatalf("aborts %d < mispredicts %d; every mispredict must abort before retrying",
					r1.Aborted, r1.Mispredicted)
			}
			if r1.CrossShard < r1.Mispredicted {
				t.Fatalf("cross-shard commits %d < mispredicts %d; retries must run distributed",
					r1.CrossShard, r1.Mispredicted)
			}
			if r2 := run(); r1 != r2 {
				t.Fatalf("forced-mispredict runs diverge at cpus=%d:\n%+v\n%+v", cpus, r1, r2)
			}
			t.Logf("cpus=%d: mispredicted=%d aborted=%d cross=%d", cpus, r1.Mispredicted, r1.Aborted, r1.CrossShard)
		})
	}
}

// TestStrayMispredictFailsTheRun: workload.ErrMispredict is the fast path's
// unwind and means nothing outside RunMispredicted. Anywhere else it is a
// missing row, so a one-shard run with no predictor whose RunTxn raises it
// must fail naming the misprediction, not count it and retry.
func TestStrayMispredictFailsTheRun(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	raised := false
	check := func() {
		if !raised {
			raised = true
			panic(workload.ErrMispredict)
		}
	}
	cfg := configFor(gateWorkload{Workload: wl, check: check}, app, appL, kern, kernL)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "misprediction") {
		t.Fatalf("Run error = %v (result %+v), want the stray misprediction", err, res)
	}
}

// TestFastPathValidation: the fast path must be rejected fast on
// misconfiguration — a single shard, or an app image built without the
// predictor models.
func TestFastPathValidation(t *testing.T) {
	wl := shardWorkload(t, "tpcb")
	app, appL, kern, kernL := fastImages(t, wl)
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.PredictFastPath = true
	if _, err := machine.New(cfg); err == nil || !strings.Contains(err.Error(), "Shards > 1") {
		t.Fatalf("single-shard fast path accepted (err = %v)", err)
	}
	plainApp, plainAppL, _, _ := testImages(t, wl)
	cfg = configFor(wl, plainApp, plainAppL, kern, kernL)
	cfg.Shards = 2
	cfg.PredictFastPath = true
	if _, err := machine.New(cfg); err == nil || !strings.Contains(err.Error(), "appmodel.Config.FastPath") {
		t.Fatalf("fast path accepted without predictor models in the image (err = %v)", err)
	}
}

// TestFastPathImageOffIsBitIdentical: building the app image with
// FastPath=false must stay bit-identical to the pre-fast-path image — the
// predictor models may not perturb image generation when disabled.
func TestFastPathImageOffIsBitIdentical(t *testing.T) {
	wl := shardWorkload(t, "tpcb")
	build := func(fast bool) *codegen.Image {
		app, err := appmodel.Build(appmodel.Config{
			Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl, FastPath: fast,
		})
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	off1, off2, on := build(false), build(false), build(true)
	s1, s2, sOn := off1.Prog.ComputeStats(), off2.Prog.ComputeStats(), on.Prog.ComputeStats()
	if s1 != s2 {
		t.Fatalf("FastPath=false builds diverge:\n%+v\n%+v", s1, s2)
	}
	if off1.Fns["predict_check"] != nil {
		t.Fatal("FastPath=false image contains predictor models")
	}
	if on.Fns["predict_check"] == nil || on.Fns["predict_train"] == nil {
		t.Fatal("FastPath=true image lacks predictor models")
	}
	if sOn.BodyWords <= s1.BodyWords {
		t.Fatalf("predictor models added no code: on=%d off=%d body words", sOn.BodyWords, s1.BodyWords)
	}
}

// TestFastPathBeatsRoutedAtLowCross is the pinned perf regression behind the
// PR: at 8 shards on a low-cross-shard TPC-B mix, the predictive fast path
// must beat the always-routed baseline on both instructions per transaction
// and p99 latency, with the invariants passing either way.
func TestFastPathBeatsRoutedAtLowCross(t *testing.T) {
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 24, TellersPerBranch: 3, AccountsPerBranch: 100})
	wl.CrossShardPct = 1
	app, appL, kern, kernL := fastImages(t, wl)
	run := func(fast bool) machine.Result {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Shards = 8
		cfg.CPUs = 2
		cfg.ProcsPerCPU = 8
		cfg.WarmupTxns = 80
		cfg.Transactions = 400
		cfg.PredictFastPath = fast
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("invariants (fast=%v): %v", fast, err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if on.Committed != 400 || off.Committed != 400 {
		t.Fatalf("committed: on=%d off=%d", on.Committed, off.Committed)
	}
	if on.Predicted == 0 {
		t.Fatal("fast path never taken at 1% cross-shard")
	}
	perTxnOn := float64(on.BusyInstrs) / float64(on.Committed)
	perTxnOff := float64(off.BusyInstrs) / float64(off.Committed)
	if perTxnOn >= perTxnOff {
		t.Fatalf("fast path did not cut instructions/txn: on=%.1f off=%.1f", perTxnOn, perTxnOff)
	}
	if on.Latency.P99 >= off.Latency.P99 {
		t.Fatalf("fast path did not cut p99: on=%d off=%d", on.Latency.P99, off.Latency.P99)
	}
	t.Logf("instr/txn %.1f -> %.1f, p99 %d -> %d, predicted=%d mispredicted=%d",
		perTxnOff, perTxnOn, off.Latency.P99, on.Latency.P99, on.Predicted, on.Mispredicted)
}
