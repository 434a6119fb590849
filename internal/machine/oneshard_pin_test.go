package machine_test

import (
	"fmt"
	"runtime"
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// oneShardPins are fixed-seed Shards == 1 results for the two workloads the
// expt-level TPC-B pin (TestSelfTrainedTPCBPinned) does not cover: the whole
// machine.Result plus every per-kind latency cell, at quick scale with the
// fetch-stall clock on. They were recorded before the single-engine path was
// folded into the routed one, so they vouch for the fold with numbers it did
// not produce; any drift is a behavior change, not noise.
var oneShardPins = map[string]struct {
	wl    func() workload.Workload
	res   string   // fmt %+v of the machine.Result
	kinds []string // "shard/kind N mean p50 p95 p99 max", ordered
}{
	"ycsb": {
		wl:  func() workload.Workload { return ycsb.New().QuickScale() },
		res: "{Committed:300 Aborted:0 CrossShard:0 Predicted:0 Mispredicted:0 AppInstrs:893058 KernelInstrs:14468 IdleInstrs:106192 BusyInstrs:907526 GroupedCommits:5 LogFlushes:3 LogBlockedInstr:2632674 LockConflicts:0 Deadlocks:0 BufMisses:68 FetchStallInstr:333020 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:298 Mean:10949.728187919463 P50:3570 P95:7755 P99:394526 Max:558001}}",
		kinds: []string{
			"0/read 293 3679.635 3544 6121 6121 6121",
			"0/update 5 436977.200 425983 558001 558001 558001",
		},
	},
	"ordere": {
		wl:  func() workload.Workload { return ordere.New().QuickScale() },
		res: "{Committed:300 Aborted:0 CrossShard:0 Predicted:0 Mispredicted:0 AppInstrs:14296821 KernelInstrs:647112 IdleInstrs:7516189 BusyInstrs:14943933 GroupedCommits:194 LogFlushes:127 LogBlockedInstr:37039934 LockConflicts:419 Deadlocks:0 BufMisses:69 FetchStallInstr:6562480 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:289 Mean:664794.9446366782 P50:429716 P95:2014279 P99:4348095 Max:4919996}}",
		kinds: []string{
			"0/neworder 184 528404.777 385796 1597061 2908050 3118416",
			"0/payment 105 903802.476 519245 3407871 4919996 4919996",
		},
	},
}

func TestOneShardPinned(t *testing.T) {
	for name, pin := range oneShardPins {
		t.Run(name, func(t *testing.T) {
			wl := pin.wl()
			app, appL, kern, kernL := testImages(t, wl)
			// The pin holds however many Ps the coroutine switch has.
			for _, procs := range []int{1, 4} {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = 1
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 6
				cfg.WarmupTxns = 20
				cfg.Transactions = 300
				cfg.FetchStallPenaltyInstr = 20
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prev := runtime.GOMAXPROCS(procs)
				res, err := m.Run()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%+v", res); got != pin.res {
					t.Errorf("GOMAXPROCS %d: result drifted from the pin:\n got %s\nwant %s", procs, got, pin.res)
				}
				var kinds []string
				for _, c := range m.LatencyByKind() {
					s := c.Summary
					kinds = append(kinds, fmt.Sprintf("%d/%s %d %.3f %d %d %d %d",
						c.Shard, c.Kind, s.N, s.Mean, s.P50, s.P95, s.P99, s.Max))
				}
				if fmt.Sprint(kinds) != fmt.Sprint(pin.kinds) {
					t.Errorf("GOMAXPROCS %d: per-kind latency drifted from the pin:\n got %q\nwant %q", procs, kinds, pin.kinds)
				}
			}
		})
	}
}
