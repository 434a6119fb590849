package kernel_test

import (
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/kernel"
	"codelayout/internal/program"
)

func TestBuildAndRunAllServices(t *testing.T) {
	img, err := kernel.Build(kernel.Config{Seed: 9, ColdWords: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	em := codegen.NewEmitter(img, l, 1)
	em.Sink = func(uint64, int32) {}
	services := []string{
		kernel.SvcLogWrite, kernel.SvcLogWait, kernel.SvcPread,
		kernel.SvcLockSleep, kernel.SvcTimer, kernel.SvcSwitch,
	}
	for _, svc := range services {
		before := em.Instructions
		for i := 0; i < 10; i++ {
			em.RunAuto(svc)
		}
		if em.Instructions == before {
			t.Fatalf("service %s emitted nothing", svc)
		}
		if !em.Idle() {
			t.Fatalf("service %s left the walker busy", svc)
		}
	}
}

func TestKernelFootprintModest(t *testing.T) {
	img, err := kernel.Build(kernel.DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	st := img.Prog.ComputeStats()
	hotKB := float64(st.HotWords*4) / 1024
	// The kernel's exercised code should be much smaller than the
	// application's (the paper's kernel footprint is modest).
	if hotKB < 20 || hotKB > 200 {
		t.Fatalf("kernel hot code = %.1f KB", hotKB)
	}
}
