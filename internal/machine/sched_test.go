package machine_test

import (
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/trace"
)

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	run := func(warmup int) machine.Result {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.WarmupTxns = warmup
		cfg.Transactions = 30
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
	with := run(20)
	without := run(0)
	// Measured committed counts are identical; measured instructions must
	// be in the same ballpark (warmup only shifts which txns are counted).
	if with.Committed != 30 || without.Committed != 30 {
		t.Fatalf("committed: %d/%d", with.Committed, without.Committed)
	}
	ratio := float64(with.AppInstrs) / float64(without.AppInstrs)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("warmup distorted measurement: %d vs %d", with.AppInstrs, without.AppInstrs)
	}
}

func TestTimerInterruptsInjectKernelCode(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.TimerIntervalInstr = 20_000 // very frequent timer
	seq := trace.NewSeqLen()
	cfg.Sinks = []trace.Sink{trace.KernelOnly(seq)}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := configFor(wl, app, appL, kern, kernL)
	cfg2.TimerIntervalInstr = 100_000_000 // effectively no timer
	seq2 := trace.NewSeqLen()
	cfg2.Sinks = []trace.Sink{trace.KernelOnly(seq2)}
	m2, err := machine.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelInstrs <= res2.KernelInstrs {
		t.Fatalf("frequent timer did not add kernel work: %d vs %d",
			res.KernelInstrs, res2.KernelInstrs)
	}
	// A flushed SeqLen's Sum is every word it was fed.
	seq.Flush()
	seq2.Flush()
	if seq.Hist.Sum != float64(res.KernelInstrs) || seq2.Hist.Sum != float64(res2.KernelInstrs) {
		t.Fatalf("kernel sinks saw %v and %v words, results say %d and %d",
			seq.Hist.Sum, seq2.Hist.Sum, res.KernelInstrs, res2.KernelInstrs)
	}
}

func TestQuantumForcesContextSwitches(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.QuantumInstr = 5_000 // tiny quantum: constant preemption
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 40 {
		t.Fatalf("committed = %d under heavy preemption", res.Committed)
	}
	// Preemption adds scheduler/context-switch kernel work.
	if res.KernelFrac() < 0.05 {
		t.Fatalf("kernel fraction %.3f too low under tiny quantum", res.KernelFrac())
	}
}

func TestMachineRequiresImages(t *testing.T) {
	if _, err := machine.New(machine.Config{}); err == nil {
		t.Fatal("expected error without images")
	}
}

func TestIdleAccountedWhenProcsBlock(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	cfg := configFor(wl, app, appL, kern, kernL)
	cfg.ProcsPerCPU = 1 // a single process: every log write idles the CPU
	cfg.LogWriteDelayInstr = 500_000
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleInstrs == 0 {
		t.Fatal("expected idle time with one process and slow log writes")
	}
	// With 4 processes the same config should overlap I/O and idle less
	// per transaction.
	cfg2 := configFor(wl, app, appL, kern, kernL)
	cfg2.ProcsPerCPU = 6
	cfg2.LogWriteDelayInstr = 500_000
	m2, err := machine.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	perTxn1 := float64(res.IdleInstrs) / float64(res.Committed)
	perTxn6 := float64(res2.IdleInstrs) / float64(res2.Committed)
	if perTxn6 >= perTxn1 {
		t.Fatalf("more processes should hide I/O: idle/txn %f vs %f", perTxn6, perTxn1)
	}
}
