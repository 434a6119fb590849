package machine_test

import (
	"fmt"
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/workload"
)

// fastPathPins are fixed-seed sharded runs through the predictive fast path:
// the whole machine.Result plus every per-kind latency cell. The TPC-B run's
// always-local stub sends every cross-shard request down RunMispredicted; the
// order-entry run trains its predictor online, so both correct and wrong
// guesses occur. They were recorded before the mispredicted and distributed
// requests were folded into the local routines, so they vouch for the fold
// with numbers it did not produce; any drift is a behavior change.
var fastPathPins = map[string]struct {
	wl     string
	shards int
	pred   workload.Predictor // nil: the trained predictor
	res    string             // fmt %+v of the machine.Result
	kinds  []string           // "shard/kind N mean p50 p95 p99 max", ordered
}{
	"tpcb-always-local": {
		wl: "tpcb", shards: 2, pred: alwaysLocal{},
		res: "{Committed:200 Aborted:27 CrossShard:28 Predicted:172 Mispredicted:27 AppInstrs:3524901 KernelInstrs:528471 IdleInstrs:8811381 BusyInstrs:4053372 GroupedCommits:96 LogFlushes:167 LogBlockedInstr:31329177 LockConflicts:310 Deadlocks:0 BufMisses:18 FetchStallInstr:3070940 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:189 Mean:462913.8095238095 P50:352095 P95:1477836 P99:1823281 Max:1823281}}",
		kinds: []string{
			"0/tpcb 77 414965.026 269042 1087897 1447900 1447900",
			"0/tpcb_dist 13 575165.308 468113 1150387 1150387 1150387",
			"1/tpcb 87 458210.092 334233 1526988 1823281 1823281",
			"1/tpcb_dist 12 683081.333 611669 1227840 1227840 1227840",
		},
	},
	"ordere-trained": {
		wl: "ordere", shards: 4,
		res: "{Committed:200 Aborted:6 CrossShard:11 Predicted:160 Mispredicted:6 AppInstrs:9103480 KernelInstrs:423577 IdleInstrs:3879081 BusyInstrs:9527057 GroupedCommits:65 LogFlushes:181 LogBlockedInstr:35949648 LockConflicts:196 Deadlocks:0 BufMisses:79 FetchStallInstr:4128980 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:189 Mean:618921.8941798941 P50:468113 P95:1936587 P99:2749640 Max:2749640}}",
		kinds: []string{
			"0/neworder 48 707695.667 551882 1992293 2749640 2749640",
			"0/payment 19 822357.211 458751 2717851 2717851 2717851",
			"0/payment_dist 5 698025.600 655359 1154362 1154362 1154362",
			"1/neworder 41 566844.854 463120 1730149 2122347 2122347",
			"1/payment 16 781386.688 480596 2407306 2407306 2407306",
			"1/payment_dist 5 718113.000 655359 1120390 1120390 1120390",
			"2/neworder 18 570538.667 458751 1625292 1682622 1682622",
			"2/payment 9 404694.000 327679 880900 880900 880900",
			"2/payment_dist 1 553224.000 553224 553224 553224 553224",
			"3/neworder 12 483763.167 436906 910808 910808 910808",
			"3/payment 15 285881.067 240297 851967 876450 876450",
		},
	},
}

func TestFastPathPinned(t *testing.T) {
	for name, pin := range fastPathPins {
		t.Run(name, func(t *testing.T) {
			wl := shardWorkload(t, pin.wl)
			app, appL, kern, kernL := fastImages(t, wl)
			cfg := configFor(wl, app, appL, kern, kernL)
			cfg.Shards = pin.shards
			cfg.CPUs = 2
			cfg.ProcsPerCPU = 6
			cfg.WarmupTxns = 30
			cfg.Transactions = 200
			cfg.FetchStallPenaltyInstr = 20
			cfg.PredictFastPath = true
			cfg.Predictor = pin.pred
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if res.Mispredicted == 0 {
				t.Fatal("no request took the mispredicted path; the pin does not cover it")
			}
			if got := fmt.Sprintf("%+v", res); got != pin.res {
				t.Errorf("result drifted from the pin:\n got %s\nwant %s", got, pin.res)
			}
			var kinds []string
			for _, c := range m.LatencyByKind() {
				s := c.Summary
				kinds = append(kinds, fmt.Sprintf("%d/%s %d %.3f %d %d %d %d",
					c.Shard, c.Kind, s.N, s.Mean, s.P50, s.P95, s.P99, s.Max))
			}
			if fmt.Sprint(kinds) != fmt.Sprint(pin.kinds) {
				t.Errorf("per-kind latency drifted from the pin:\n got %q\nwant %q", kinds, pin.kinds)
			}
		})
	}
}
