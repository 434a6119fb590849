package expt

import (
	"errors"
	"runtime"
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
		log, _ := attachBattery(&cfg, set)
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
	if log, _ := attachBattery(&cfg, NoSinks); log != nil || len(cfg.Sinks)+len(cfg.DataSinks) != 0 {
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

// TestBatteryLeavesNoGoroutine: the lanes live inside runMeasured. However
// the run ends — measured, refused by machine.New, a process panic, a failed
// invariant audit, a simulator panicking on its lane — the call returns (a
// hang fails the test's timeout), every failure is an error naming the run,
// and no goroutine is left behind.
func TestBatteryLeavesNoGoroutine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	const boomBit = AllSinks + 1
	sinkGroups = append(sinkGroups, sinkGroup{"boom", boomBit, combStream, func(cpus int, _ SinkSet) ([]trace.Sink, trace.DataSink, func(*Measure)) {
		sinks := make([]trace.Sink, cpus)
		for i := range sinks {
			sinks[i] = boomSink{}
		}
		return sinks, nil, func(*Measure) {}
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m, err := runMeasured(tc.cfg, tc.set, "the run")
			switch {
			case tc.wantErr == "" && (err != nil || m.Res.Committed != uint64(s.Opt.Transactions)):
				t.Fatalf("measure %+v, error %v", m, err)
			case tc.wantErr != "" && (m != nil || err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("measure %v, error %v; want an error containing %q", m, err, tc.wantErr)
			}
			// close waited for every lane's last statement; the runtime may
			// take a moment more to retire the goroutine itself.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutine(s) outlive runMeasured", runtime.NumGoroutine()-before)
				}
			}
		})
	}
}
