package expt

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"codelayout/internal/db"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// TestBatteryRejectsForeignCPU: the battery is sized from the machine.Config
// it is attached to, so an event from a CPU beyond it is a bug and panics on
// the caller's goroutine, before it is buffered, instead of reaching a lane
// or being folded into the last CPU's statistics — whatever the log feeds: a
// one-member family, a two-member one, the five direct-mapped families, the
// TLBs and a memory system's L1I and data side.
func TestBatteryRejectsForeignCPU(t *testing.T) {
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	for _, set := range []SinkSet{SinkApp4W(64), SinkApp4W(64) | SinkApp4W(128), SinkAppDM, SinkITLB, SinkMem} {
		cfg := machine.Config{CPUs: 2}
		log := attachBattery(&cfg, set, new(batteryList))
		if len(cfg.Sinks) != 1 || cfg.Sinks[0] != trace.Sink(log) {
			t.Fatalf("set %#x attached %d fetch sinks, want the log alone", set, len(cfg.Sinks))
		}
		if wantData := set == SinkMem; (len(cfg.DataSinks) == 1) != wantData {
			t.Errorf("set %#x attached %d data sinks", set, len(cfg.DataSinks))
		}
		log.Fetch(trace.FetchRun{Addr: 0x1000, Words: 4, CPU: 1})
		if !panics(func() { log.Fetch(trace.FetchRun{Addr: 0x1000, Words: 4, CPU: 2}) }) {
			t.Errorf("set %#x: a run on cpu 2 of a 2-cpu battery did not panic", set)
		}
		if !panics(func() { log.Data(trace.DataRef{Addr: 0x1000, Bytes: 8, CPU: 2}) }) {
			t.Errorf("set %#x: a data reference on cpu 2 of a 2-cpu battery did not panic", set)
		}
		if err := log.close(); err != nil {
			t.Errorf("set %#x: %v", set, err)
		}
	}
	cfg := machine.Config{CPUs: 2}
	if log := attachBattery(&cfg, NoSinks, new(batteryList)); log != nil || len(cfg.Sinks)+len(cfg.DataSinks) != 0 {
		t.Errorf("the empty set attached %d sinks", len(cfg.Sinks)+len(cfg.DataSinks))
	}
}

// failingWorkload wraps a workload so that the run fails where the case says:
// RunTxn panics once crashAfter transactions have started (a process panic,
// mid-measurement: the lanes hold chunks by then), or the invariant audit
// after the run reports checkErr.
type failingWorkload struct {
	workload.Workload
	crashAfter int
	checkErr   error
}

func (w failingWorkload) Load(engs []*db.Engine) (workload.Instance, error) {
	inst, err := w.Workload.Load(engs)
	return &failingInstance{Instance: inst, w: w}, err
}

type failingInstance struct {
	workload.Instance
	w       failingWorkload
	started int
}

func (f *failingInstance) RunTxn(ss []*db.Session, in workload.Input) {
	if f.started++; f.w.crashAfter > 0 && f.started > f.w.crashAfter {
		panic("boom in RunTxn")
	}
	f.Instance.RunTxn(ss, in)
}

func (f *failingInstance) Check(ss []*db.Session) error {
	if f.w.checkErr != nil {
		return f.w.checkErr
	}
	return f.Instance.Check(ss)
}

// boomSink panics on its first fetch run.
type boomSink struct{}

func (boomSink) Fetch(trace.FetchRun) { panic("boom in a simulator") }

// onList returns the batteries of shape k that s's source holds for reuse.
func onList(s *Session, k shape) []*battery {
	bl := &s.src.batteries
	bl.mu.Lock()
	defer bl.mu.Unlock()
	return slices.Clone(bl.free[k])
}

// simulators lists the simulators of every group of b: each CPU's fetch sink
// and the data sink.
func simulators(b *battery) []any {
	var out []any
	for _, g := range b.groups {
		for _, f := range g.fetch {
			out = append(out, f)
		}
		out = append(out, g.data)
	}
	return out
}

// TestRecycledBatteryMatchesFresh: a run on a recycled battery reads what a
// run on a new one reads. One process measures TPC-B under base, fusion, all
// and base again with the full battery, then with App4W(64)|Mem, then with
// the full battery again, on one CPU and then on two, so that every run but
// the first of each shape takes the battery the run before it of the same
// shape reset and put back: after each run the source holds exactly one
// battery of its shape, the same one every time, each of its groups — Seq
// and Foot too — holding the simulators it held after the shape's first
// run: a battery is built once per shape. Each Measure must equal the
// Measure of its layout, set and CPUs taken on a battery built for that one
// run and never reset or reused (measureSynchronous builds its own, and
// TestBatteryMatchesSynchronous holds MeasureConfig on a new battery to it);
// and once every run is done, each Measure returned along the way must still
// equal it: no later reset or run, though it reused the simulators, wrote
// into a result handed out before it. A second source builds its own
// battery, and a two-worker batch leaves at most two of a shape.
func TestRecycledBatteryMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
	s := tinySession(t, wl, nil)
	type key struct {
		layout string
		set    SinkSet
		cpus   int
	}
	measure := func(s *Session, k key, with func(machine.Config, SinkSet) (*Measure, error)) *Measure {
		t.Helper()
		cfg, err := s.machineConfig(k.layout, "kbase", k.cpus)
		if err != nil {
			t.Fatal(err)
		}
		m, err := with(cfg, k.set)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	recycling := func(cfg machine.Config, set SinkSet) (*Measure, error) { return s.MeasureConfig(cfg, set, "the run") }
	var order []key
	for _, cpus := range []int{1, 2} {
		for _, set := range []SinkSet{AllSinks, SinkApp4W(64) | SinkMem, AllSinks} {
			for _, layout := range []string{"base", "fusion", "all", "base"} {
				order = append(order, key{layout, set, cpus})
			}
		}
	}
	fresh := map[key]*Measure{}
	for _, k := range order {
		if fresh[k] == nil {
			fresh[k] = measure(s, k, measureSynchronous)
		}
	}
	got := make([]*Measure, len(order))
	kept := map[shape]*battery{}
	keptSims := map[shape][]any{}
	for i, k := range order {
		if got[i] = measure(s, k, recycling); !reflect.DeepEqual(got[i], fresh[k]) {
			t.Errorf("run %d %+v on a recycled battery reads something else than on a new one\n got %+v\nwant %+v", i, k, got[i], fresh[k])
		}
		sh := shape{k.cpus, k.set}
		list := onList(s, sh)
		if len(list) != 1 {
			t.Fatalf("run %d %+v left %d batteries of its shape on the list, want 1", i, k, len(list))
		}
		for g, sims := range list[0].groups {
			if len(sims.fetch) != k.cpus || sims.collect == nil || sims.reset == nil {
				t.Errorf("run %d %+v put group %d on the list without its simulators", i, k, g)
			}
		}
		if kept[sh] == nil {
			kept[sh], keptSims[sh] = list[0], simulators(list[0])
		} else if list[0] != kept[sh] {
			t.Errorf("run %d %+v built a battery although the list held one of its shape", i, k)
		} else if !slices.Equal(simulators(list[0]), keptSims[sh]) {
			t.Errorf("run %d %+v built a group's simulators again on a recycled battery", i, k)
		}
	}
	for i, k := range order {
		if !reflect.DeepEqual(got[i], fresh[k]) {
			t.Errorf("run %d %+v: its Measure changed after later runs reused its battery", i, k)
		}
	}

	other := tinySession(t, wl, nil)
	k := key{"base", AllSinks, 2}
	if m := measure(other, k, func(cfg machine.Config, set SinkSet) (*Measure, error) {
		return other.MeasureConfig(cfg, set, "the run")
	}); !reflect.DeepEqual(m, fresh[k]) {
		t.Errorf("a second source's run reads something else than a new battery\n got %+v\nwant %+v", m, fresh[k])
	}
	if list := onList(other, shape{k.cpus, k.set}); len(list) != 1 || list[0] == kept[shape{k.cpus, k.set}] {
		t.Errorf("a second source holds %d batteries of the shape after one run, or shares the first's", len(list))
	}

	batch := tinySession(t, wl, nil)
	if err := batch.MeasureBatch([]string{"base", "fusion", "all", "ipchain"}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(onList(batch, shape{2, AllSinks})); n < 1 || n > 2 {
		t.Errorf("a two-worker batch left %d batteries of its shape, want 1 or 2", n)
	}
}

// TestBatteryLeavesNoGoroutine: the lanes live inside MeasureConfig. However
// the run ends — measured, refused by machine.New, a process panic, a failed
// invariant audit, a simulator panicking on its lane — the call returns (a
// hang fails the test's timeout), every failure is an error naming the run,
// and no goroutine is left behind. A failed run drops its battery, whatever
// its lanes left in it: it leaves nothing of its shape on the list, and a run
// of the measured case's shape after it reads exactly what the measured case
// read.
func TestBatteryLeavesNoGoroutine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	const boomBit = AllSinks + 1
	sinkGroups = append(sinkGroups, sinkGroup{"boom", boomBit, combStream, func(cpus int, _ SinkSet) sims {
		sinks := make([]trace.Sink, cpus)
		for i := range sinks {
			sinks[i] = boomSink{}
		}
		return sims{fetch: sinks, collect: func(*Measure) {}, reset: func() {}}
	}})
	defer func() { sinkGroups = sinkGroups[:len(sinkGroups)-1] }()

	s := tinySession(t, tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}), nil)
	base, err := s.machineConfig("base", "kbase", s.Opt.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*machine.Config)) machine.Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name    string
		cfg     machine.Config
		set     SinkSet
		wantErr string
	}{
		{"measured", base, AllSinks, ""},
		{"machine.New error", with(func(c *machine.Config) { c.ProcsPerCPU = -1 }), AllSinks, "machine: ProcsPerCPU = -1"},
		{"process panic", with(func(c *machine.Config) { c.Workload = failingWorkload{Workload: c.Workload, crashAfter: 25} }), AllSinks,
			"expt: measuring the run: machine: process "},
		{"invariant failure", with(func(c *machine.Config) {
			c.Workload = failingWorkload{Workload: c.Workload, checkErr: errors.New("a balance is off")}
		}), AllSinks,
			"a balance is off"},
		{"lane panic", base, AllSinks | boomBit, "expt: measuring the run: sink group boom panicked: boom in a simulator"},
	}
	var measured *Measure
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m, err := s.MeasureConfig(tc.cfg, tc.set, "the run")
			switch {
			case tc.wantErr == "" && (err != nil || m.Res.Committed != uint64(s.Opt.Transactions)):
				t.Fatalf("measure %+v, error %v", m, err)
			case tc.wantErr != "" && (m != nil || err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("measure %v, error %v; want an error containing %q", m, err, tc.wantErr)
			case tc.wantErr == "":
				measured = m
			case measured == nil:
				t.Fatal("the measured case failed")
			default:
				if n := len(onList(s, shape{tc.cfg.CPUs, tc.set})); n != 0 {
					t.Errorf("the failed run left %d batteries of its shape on the list", n)
				}
				again, err := s.MeasureConfig(base, AllSinks, "the run again")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, measured) {
					t.Errorf("the run after the failure reads something else than the measured case\n got %+v\nwant %+v", again, measured)
				}
			}
			// close waited for every lane's last statement; the runtime may
			// take a moment more to retire the goroutine itself.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutine(s) outlive MeasureConfig", runtime.NumGoroutine()-before)
				}
			}
		})
	}
}
