package expt

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// byCPU routes each fetch run to its CPU's own simulator, synchronously.
type byCPU []trace.Sink

func (p byCPU) Fetch(r trace.FetchRun) { p[r.CPU].Fetch(r) }

// measureSynchronous is the reference the event log and its lanes are checked
// against: the battery attached the way it was before them, every simulator
// called inline on the machine's goroutine through one filtered tee per
// observed stream, data sinks beside them.
func measureSynchronous(cfg machine.Config, set SinkSet) (*Measure, error) {
	filter := [numStreams]func(trace.Sink) trace.Sink{
		appStream:  trace.AppOnly,
		kernStream: trace.KernelOnly,
		combStream: func(s trace.Sink) trace.Sink { return s },
	}
	var tees [numStreams]trace.Tee
	var collect []func(*Measure)
	for _, g := range sinkGroups {
		if g.in&set == 0 {
			continue
		}
		s := g.build(cfg.CPUs, set)
		tees[g.stream] = append(tees[g.stream], byCPU(s.fetch))
		if s.data != nil {
			cfg.DataSinks = append(cfg.DataSinks, s.data)
		}
		collect = append(collect, s.collect)
	}
	for st, tee := range tees {
		if len(tee) > 0 {
			cfg.Sinks = append(cfg.Sinks, filter[st](tee))
		}
	}
	mach, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.Run()
	if err == nil {
		err = mach.CheckInvariants()
	}
	if err != nil {
		return nil, err
	}
	meas := &Measure{Res: res, Sinks: set, Latency: mach.LatencyByKind(), GCWindows: mach.GroupCommitWindows()}
	for _, c := range collect {
		c(meas)
	}
	return meas, nil
}

// tinySessionOptions are the options of tinySession.
func tinySessionOptions(wl workload.Workload, tune func(*Options)) Options {
	o := QuickOptions()
	o.Workload = wl
	o.Transactions, o.WarmupTxns, o.Train.Txns = 30, 8, 100
	o.CPUs, o.ProcsPerCPU = 2, 4
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
	if tune != nil {
		tune(&o)
	}
	return o
}

// tinySession is a session over wl at a scale where one run takes tens of
// milliseconds and still fills dozens of chunks.
func tinySession(t *testing.T, wl workload.Workload, tune func(*Options)) *Session {
	t.Helper()
	s, err := NewSession(tinySessionOptions(wl, tune))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatteryMatchesSynchronous: a run measured through the event log and
// its lanes is, field for field, the run measured with every simulator called
// inline — same events, same order per group, data references between the
// fetch runs where the machine issued them (Mem and Board's L2 takes both) —
// for the bits of every group alone, the two memory systems together and the
// full battery, on TPC-B, order entry on four shards (fast path, p99 tuner,
// fetch stalls) and the key-value store.
func TestBatteryMatchesSynchronous(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	sets := []SinkSet{AllSinks, SinkMem | SinkBoard}
	for _, g := range sinkGroups {
		if !slices.Contains(sets, g.in) {
			sets = append(sets, g.in) // rows that share their bits are measured together
		}
	}
	cases := []struct {
		name string
		wl   workload.Workload
		tune func(*Options)
	}{
		{"tpcb", tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}), nil},
		{"ordere-4-shards", ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}), func(o *Options) {
			o.Shards = 4
			o.PredictFastPath = true
			o.AutoGroupCommit = machine.AutoGCTargetP99
			o.FetchStallPenaltyInstr = 40
		}},
		// Point reads are short: more of them, to reach a timer interrupt.
		{"ycsb", ycsb.NewScaled(ycsb.Scale{Records: 2500}), func(o *Options) { o.Transactions = 400 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySession(t, tc.wl, tc.tune)
			cfg, err := s.machineConfig("all", "kbase", s.Opt.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range sets {
				got, err := MeasureConfig(cfg, set, fmt.Sprintf("set %#x", set))
				if err != nil {
					t.Fatal(err)
				}
				want, err := measureSynchronous(cfg, set)
				if err != nil {
					t.Fatal(err)
				}
				if want.Res.Committed != uint64(s.Opt.Transactions) {
					t.Fatalf("set %#x: the reference run committed %d of %d", set, want.Res.Committed, s.Opt.Transactions)
				}
				if l2 := want.Mem.L2Accesses; set == AllSinks && (l2[0] == 0 || l2[1] == 0 || want.AllRuns.KernelInstrs == 0) {
					t.Errorf("the run does not send both L1I misses and data references to the L2, or has no kernel runs: %+v, %+v", want.Mem, want.AllRuns)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("set %#x: the lanes read something else than the synchronous battery\n got %+v\nwant %+v", set, got, want)
				}
			}
		})
	}
}
