package machine_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/workload"
)

// crashWorkload wraps a workload so that RunTxn panics once `after`
// transactions have started, machine-wide: by then other processes are parked
// in lock waits, log writes and quantum switches, which is where the failed
// Run has to unwind them from.
type crashWorkload struct {
	workload.Workload
	after int
}

func (w crashWorkload) Load(engs []*db.Engine) (workload.Instance, error) {
	inst, err := w.Workload.Load(engs)
	return &crashInstance{Instance: inst, left: w.after}, err
}

type crashInstance struct {
	workload.Instance
	left int
}

func (c *crashInstance) RunTxn(ss []*db.Session, in workload.Input) {
	if c.left == 0 {
		panic("boom in RunTxn")
	}
	c.left--
	c.Instance.RunTxn(ss, in)
}

// crashConfig is a two-CPU order-entry run (contended locks, group commit)
// whose 25th transaction panics.
func crashConfig(t *testing.T) machine.Config {
	t.Helper()
	wl := smallWorkload(t, "ordere")
	app, appL, kern, kernL := testImages(t, wl)
	cfg := configFor(crashWorkload{Workload: wl, after: 24}, app, appL, kern, kernL)
	cfg.CPUs = 2
	return cfg
}

// TestProcessPanicIsARunError: a panic inside a process comes back from Run
// as an error naming the process and the message, not as a crash of the
// caller.
func TestProcessPanicIsARunError(t *testing.T) {
	m, err := machine.New(crashConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("Run succeeded over a workload whose RunTxn panics")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "machine: process ") || !strings.Contains(msg, " panicked: boom in RunTxn") {
		t.Fatalf("error %q does not name the process and the panic message", msg)
	}
}

// TestRunIsSingleUse: a second Run is refused before it creates a process or
// adds the engine counters into a second Result.
func TestRunIsSingleUse(t *testing.T) {
	cfg := testSetup(t, "tpcb")
	cfg.CPUs = 2
	before := runtime.NumGoroutine()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err == nil {
		t.Fatalf("second Run was accepted: %+v", res)
	}
	if res != (machine.Result{}) {
		t.Errorf("refused Run returned a non-zero Result: %+v", res)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("second Run left %d goroutine(s) behind", n-before)
	}
}

// TestRunLeavesNoGoroutines: every process coroutine is gone when Run
// returns, however it returns, and a machine that never runs never had one.
func TestRunLeavesNoGoroutines(t *testing.T) {
	reoptFails := func(t *testing.T) machine.Config {
		app, appL, kern, kernL := testImages(t, reoptWorkload(0))
		cfg := configFor(reoptWorkload(20), app, appL, kern, kernL)
		cfg.Transactions = 200
		cfg.Reopt = &machine.Reoptimizer{
			Every: 20, TrainMix: map[string]float64{"read": 1},
			Retrain: func(*profile.Profile) (*program.Layout, error) {
				return nil, errors.New("trainer unavailable")
			},
		}
		return cfg
	}
	cases := []struct {
		name    string
		cfg     func(*testing.T) machine.Config
		run     bool
		wantErr string
	}{
		{"success", func(t *testing.T) machine.Config { return testSetup(t, "ordere") }, true, ""},
		{"process panic", crashConfig, true, "panicked: boom in RunTxn"},
		{"reoptimize hook error", reoptFails, true, "trainer unavailable"},
		{"built and dropped", func(t *testing.T) machine.Config { return testSetup(t, "tpcb") }, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			before := runtime.NumGoroutine()
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.run {
				_, err := m.Run()
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatal(err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("Run error = %v, want one containing %q", err, tc.wantErr)
				}
			}
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%d goroutine(s) outlive the machine (baseline %d, now %d)", n-before, before, n)
			}
		})
	}
}
