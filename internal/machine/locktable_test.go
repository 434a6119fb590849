package machine_test

import (
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// TestLockTableDrainsEmpty: a released key leaves its engine's lock table
// and the machine's waits-for graph, so once a run has drained to
// quiescence neither holds anything, however many distinct keys the run
// locked, waited for or lost as a deadlock victim. A lock table that keeps
// every key it ever locked fails here.
func TestLockTableDrainsEmpty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wl     workload.Workload
		shards int
	}{
		{"ordere-2shards", smallWorkload(t, "ordere"), 2},
		{"ycsb", ycsb.NewScaled(ycsb.Scale{Records: 4000}), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, appL, kern, kernL := testImages(t, tc.wl)
			cfg := configFor(tc.wl, app, appL, kern, kernL)
			cfg.Shards, cfg.CPUs, cfg.ProcsPerCPU, cfg.Transactions = tc.shards, 2, 6, 300
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 300 {
				t.Fatalf("committed = %d", res.Committed)
			}
			for i, e := range m.Engines() {
				if n := e.Locks.Keys(); n != 0 {
					t.Errorf("shard %d keeps lock state for %d keys after the drain", i, n)
				}
			}
			if n := m.Graph().Held(); n != 0 {
				t.Errorf("the waits-for graph records holders of %d locks after the drain", n)
			}
			t.Logf("%d lock conflicts, %d deadlocks", res.LockConflicts, res.Deadlocks)
		})
	}
}
