package db_test

import (
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/probe"
)

// TestDeadlockVictimPanics builds a two-session cycle by hand: s1 holds k1
// and parks for k2 while s2 holds k2 and then requests k1. The second
// request closes the waits-for cycle, so s2 must become the victim —
// panicking with ErrDeadlock — and after its abort releases k2, s1's
// parked request must complete.
func TestDeadlockVictimPanics(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	k1 := db.LockKey(1, 100)
	k2 := db.LockKey(1, 200)

	s1.Begin()
	s1.LockX(k1)
	s2.Begin()
	s2.LockX(k2)

	sawDeadlock := false
	env.onWait = func(q *db.WaitQueue) {
		if sawDeadlock {
			return
		}
		// s1 is parked waiting for k2; now s2 closes the cycle.
		func() {
			defer func() {
				if r := recover(); r != db.ErrDeadlock {
					t.Fatalf("expected ErrDeadlock panic, got %v", r)
				}
				sawDeadlock = true
			}()
			s2.LockX(k1)
			t.Fatal("cycle-closing lock request returned")
		}()
		s2.Abort() // victim releases k2, unblocking s1
	}
	s1.LockX(k2) // parks, then succeeds after the victim aborts
	if !sawDeadlock {
		t.Fatal("deadlock never detected")
	}
	if eng.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d, want 1", eng.Deadlocks)
	}
	if eng.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", eng.Aborted)
	}
	if !eng.Locks.HeldBy(s1.Txn().ID, k2, db.LockX) {
		t.Fatal("survivor did not acquire the contested lock")
	}
	s1.Commit()
}

// unwindProbe counts the abort unwinds it is told about.
type unwindProbe struct {
	probe.Nop
	unwinds int
}

func (p *unwindProbe) AbortUnwind() { p.unwinds++ }

// wrappedProbe is a probe wrapper that overrides nothing.
type wrappedProbe struct{ probe.Probe }

// TestDeadlockVictimUnwindsThroughProbeWrapper: a wrapper that embeds
// probe.Probe forwards the victim's abort unwind to the probe it wraps, once.
func TestDeadlockVictimUnwindsThroughProbeWrapper(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	rec := &unwindProbe{}
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, wrappedProbe{rec})
	k1, k2 := db.LockKey(1, 100), db.LockKey(1, 200)

	s1.Begin()
	s1.LockX(k1)
	s2.Begin()
	s2.LockX(k2)
	env.onWait = func(q *db.WaitQueue) {
		if eng.Deadlocks > 0 {
			return
		}
		func() {
			defer func() {
				if r := recover(); r != db.ErrDeadlock {
					t.Fatalf("expected ErrDeadlock panic, got %v", r)
				}
			}()
			s2.LockX(k1)
		}()
		s2.Abort()
	}
	s1.LockX(k2)
	if eng.Deadlocks != 1 || rec.unwinds != 1 {
		t.Fatalf("Deadlocks = %d, unwinds forwarded = %d; want 1 and 1", eng.Deadlocks, rec.unwinds)
	}
	s1.Commit()
}

// TestNoFalseDeadlock: a plain conflict chain without a cycle must park,
// not abort.
func TestNoFalseDeadlock(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	key := db.LockKey(1, 7)

	s1.Begin()
	s1.LockX(key)
	s2.Begin()
	released := false
	env.onWait = func(q *db.WaitQueue) {
		if !released {
			released = true
			s1.Commit()
		}
	}
	s2.LockX(key) // waits, then acquires; must not panic
	if eng.Deadlocks != 0 {
		t.Fatalf("Deadlocks = %d on a cycle-free conflict", eng.Deadlocks)
	}
	s2.Commit()
}

// TestUpgradeNoFalseDeadlock: an S→X upgrader holds the lock it waits for;
// its own hold must not register as a cycle while the other S holder is
// still running.
func TestUpgradeNoFalseDeadlock(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	key := db.LockKey(1, 5)

	s1.Begin()
	s1.LockS(key)
	s2.Begin()
	s2.LockS(key)
	released := false
	env.onWait = func(q *db.WaitQueue) {
		if !released {
			released = true
			s1.Commit() // drops the other S hold; s2 becomes sole holder
		}
	}
	s2.LockX(key) // upgrade waits for s1, then succeeds — must not abort
	if eng.Deadlocks != 0 {
		t.Fatalf("Deadlocks = %d on a cycle-free upgrade", eng.Deadlocks)
	}
	s2.Commit()
}

// TestMutualUpgradeDeadlock: two S holders both upgrading to X block each
// other — a genuine cycle through the same lock, which the detector must
// still catch.
func TestMutualUpgradeDeadlock(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	key := db.LockKey(1, 9)

	s1.Begin()
	s1.LockS(key)
	s2.Begin()
	s2.LockS(key)

	sawDeadlock := false
	env.onWait = func(q *db.WaitQueue) {
		if sawDeadlock {
			return
		}
		func() {
			defer func() {
				if r := recover(); r != db.ErrDeadlock {
					t.Fatalf("expected ErrDeadlock, got %v", r)
				}
				sawDeadlock = true
			}()
			s2.LockX(key) // second upgrader closes the cycle
		}()
		s2.Abort() // drops s2's S hold; s1 becomes sole holder
	}
	s1.LockX(key) // parks on the upgrade, then succeeds after the abort
	if !sawDeadlock {
		t.Fatal("mutual upgrade deadlock never detected")
	}
	if eng.Deadlocks != 1 {
		t.Fatalf("Deadlocks = %d, want 1", eng.Deadlocks)
	}
	s1.Commit()
}

// TestCrossEngineDeadlock: the shared waits-for graph must see cycles whose
// edges span two engines (shards), which neither per-engine lock manager
// can observe alone.
func TestCrossEngineDeadlock(t *testing.T) {
	graph := db.NewWaitGraph()
	env := &fakeEnv{}
	engA := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env, Shard: 0, Graph: graph})
	engB := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env, Shard: 1, Graph: graph})

	// Process 1 holds a lock on engine A and parks for one on engine B;
	// process 2 holds that lock on B and then requests process 1's on A.
	p1a, p1b := engA.NewSession(1, nil), engB.NewSession(1, nil)
	p2a, p2b := engA.NewSession(2, nil), engB.NewSession(2, nil)
	kA := db.LockKey(1, 10)
	kB := db.LockKey(1, 20)

	p1a.Begin()
	p1a.LockX(kA)
	p1b.Begin()
	p2b.Begin()
	p2b.LockX(kB)
	p2a.Begin()

	sawDeadlock := false
	env.onWait = func(q *db.WaitQueue) {
		if sawDeadlock {
			return
		}
		func() {
			defer func() {
				if r := recover(); r != db.ErrDeadlock {
					t.Fatalf("expected ErrDeadlock, got %v", r)
				}
				sawDeadlock = true
			}()
			p2a.LockX(kA) // closes the cross-engine cycle
		}()
		p2a.Abort()
		p2b.Abort() // releases kB, unblocking process 1
	}
	p1b.LockX(kB)
	if !sawDeadlock {
		t.Fatal("cross-engine deadlock never detected")
	}
	if engA.Deadlocks != 1 {
		t.Fatalf("engine A Deadlocks = %d, want 1 (detection fires at the closing request)", engA.Deadlocks)
	}
	p1b.Commit()
	p1a.Commit()
}
