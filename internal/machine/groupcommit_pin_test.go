package machine_test

import (
	"fmt"
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// groupCommitPins are fixed-seed sharded runs under each group-commit
// policy: the whole machine.Result plus the per-shard windows in force at the
// end of the run, at quick scale. They were recorded while the policy was
// still three Config fields, so they vouch for the single policy value with
// numbers it did not produce; any drift is a behavior change, not noise.
var groupCommitPins = []struct {
	wl      string
	shards  int
	policy  string // the spelling setGroupCommit applies
	res     string // fmt %+v of the machine.Result
	windows string // fmt %v of GroupCommitWindows()
}{
	{"tpcb", 2, "off",
		"{Committed:200 Aborted:0 CrossShard:30 Predicted:0 Mispredicted:0 AppInstrs:3573745 KernelInstrs:491348 IdleInstrs:6208574 BusyInstrs:4065093 GroupedCommits:146 LogFlushes:132 LogBlockedInstr:30847389 LockConflicts:297 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:372621.75675675675 P50:298236 P95:1003204 P99:2254438 Max:2663555}}",
		"[0 0]"},
	{"tpcb", 2, "window:40000",
		"{Committed:200 Aborted:0 CrossShard:26 Predicted:0 Mispredicted:0 AppInstrs:3515391 KernelInstrs:468881 IdleInstrs:6473951 BusyInstrs:3984272 GroupedCommits:179 LogFlushes:94 LogBlockedInstr:35015286 LockConflicts:293 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:401959.14054054057 P50:274509 P95:1127219 P99:1696372 Max:1696372}}",
		"[40000 40000]"},
	{"tpcb", 2, "percommit",
		"{Committed:200 Aborted:0 CrossShard:28 Predicted:0 Mispredicted:0 AppInstrs:3613037 KernelInstrs:571963 IdleInstrs:7621149 BusyInstrs:4185000 GroupedCommits:118 LogFlushes:157 LogBlockedInstr:37237079 LockConflicts:310 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:449051.8162162162 P50:350149 P95:1450529 P99:1926707 Max:1926707}}",
		"[0 0]"},
	{"tpcb", 2, "flushcount",
		"{Committed:200 Aborted:0 CrossShard:25 Predicted:0 Mispredicted:0 AppInstrs:3462525 KernelInstrs:413413 IdleInstrs:11736336 BusyInstrs:3875938 GroupedCommits:185 LogFlushes:89 LogBlockedInstr:55341636 LockConflicts:296 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:588808.5945945946 P50:471557 P95:1735142 P99:2254438 Max:2487589}}",
		"[158205 172587]"},
	{"tpcb", 2, "p99",
		"{Committed:200 Aborted:0 CrossShard:25 Predicted:0 Mispredicted:0 AppInstrs:3526100 KernelInstrs:478490 IdleInstrs:5389612 BusyInstrs:4004590 GroupedCommits:165 LogFlushes:108 LogBlockedInstr:30097008 LockConflicts:286 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:356160.76216216217 P50:237741 P95:1021268 P99:2254438 Max:2459851}}",
		"[15000 15000]"},
	{"ordere", 4, "off",
		"{Committed:200 Aborted:0 CrossShard:11 Predicted:0 Mispredicted:0 AppInstrs:9202615 KernelInstrs:587595 IdleInstrs:7238266 BusyInstrs:9790210 GroupedCommits:47 LogFlushes:209 LogBlockedInstr:33703484 LockConflicts:479 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:768541.0486486487 P50:506975 P95:2702099 P99:3651477 Max:3651477}}",
		"[0 0 0 0]"},
	{"ordere", 4, "window:40000",
		"{Committed:200 Aborted:0 CrossShard:14 Predicted:0 Mispredicted:0 AppInstrs:8569033 KernelInstrs:575853 IdleInstrs:8196025 BusyInstrs:9144886 GroupedCommits:109 LogFlushes:149 LogBlockedInstr:35088543 LockConflicts:464 Deadlocks:0 BufMisses:73 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:792032.3405405405 P50:572436 P95:2430789 P99:3191462 Max:3191462}}",
		"[40000 40000 40000 40000]"},
	{"ordere", 4, "percommit",
		"{Committed:200 Aborted:0 CrossShard:9 Predicted:0 Mispredicted:0 AppInstrs:9160298 KernelInstrs:598389 IdleInstrs:7833833 BusyInstrs:9758687 GroupedCommits:38 LogFlushes:216 LogBlockedInstr:38216983 LockConflicts:484 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:787144.027027027 P50:602931 P95:2577749 P99:3058952 Max:3058952}}",
		"[0 0 0 0]"},
	{"ordere", 4, "flushcount",
		"{Committed:200 Aborted:0 CrossShard:9 Predicted:0 Mispredicted:0 AppInstrs:9217982 KernelInstrs:570472 IdleInstrs:18929878 BusyInstrs:9788454 GroupedCommits:98 LogFlushes:156 LogBlockedInstr:63821302 LockConflicts:479 Deadlocks:0 BufMisses:76 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:1.1760991135135135e+06 P50:586974 P95:4861579 P99:6913170 Max:6913170}}",
		"[240000 240000 240000 0]"},
	{"ordere", 4, "p99",
		"{Committed:200 Aborted:0 CrossShard:10 Predicted:0 Mispredicted:0 AppInstrs:9065549 KernelInstrs:609852 IdleInstrs:8290105 BusyInstrs:9675401 GroupedCommits:80 LogFlushes:175 LogBlockedInstr:32902451 LockConflicts:462 Deadlocks:0 BufMisses:74 FetchStallInstr:0 Reopts:0 SwapStallInstr:0 PreSwapP99:0 PostSwapP99:0 Latency:{N:185 Mean:810050.0972972973 P50:517005 P95:2958481 P99:4066975 Max:4372512}}",
		"[15000 15000 7500 0]"},
}

func TestGroupCommitPoliciesPinned(t *testing.T) {
	quick := map[string]workload.Workload{"tpcb": tpcb.New().QuickScale(), "ordere": ordere.New().QuickScale()}
	for _, name := range []string{"tpcb", "ordere"} {
		wl := quick[name]
		app, appL, kern, kernL := testImages(t, wl)
		for _, pin := range groupCommitPins {
			if pin.wl != name {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d/%s", pin.wl, pin.shards, pin.policy), func(t *testing.T) {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = pin.shards
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 8
				cfg.WarmupTxns = 40
				cfg.Transactions = 200
				setGroupCommit(&cfg, pin.policy)
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
				if got := fmt.Sprintf("%+v", res); got != pin.res {
					t.Errorf("result drifted from the pin:\n got %s\nwant %s", got, pin.res)
				}
				if got := fmt.Sprint(m.GroupCommitWindows()); got != pin.windows {
					t.Errorf("windows drifted from the pin: got %s, want %s", got, pin.windows)
				}
			})
		}
	}
}
