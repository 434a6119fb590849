package db

import (
	"testing"

	"codelayout/internal/probe"
)

// TestWarmedLockCycleAllocs: a transaction that locks keys no transaction
// locked before and commits allocates nothing once the lock table, the
// waits-for graph and the session are warm: released keys leave the table
// and the graph, and their state is reused. A table that keeps every key it
// ever locked fails the size check.
func TestWarmedLockCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := NewEngine(Config{BufferPoolPages: 16})
	s := eng.NewSession(1, nil)
	next := uint64(0)
	txn := func() {
		s.Begin()
		s.LockX(LockKey(1, next))
		s.LockS(LockKey(2, next))
		s.LockX(LockKey(2, next)) // upgrade: no new hold
		s.Commit()
		next++
	}
	for range 100 {
		txn()
	}
	if n := testing.AllocsPerRun(1000, txn); n != 0 {
		t.Errorf("%v allocations per warmed lock → commit cycle, want 0", n)
	}
	if n, h := eng.Locks.Keys(), eng.graph.Held(); n != 0 || h != 0 {
		t.Fatalf("after %d transactions on distinct keys the lock table keeps %d keys and the graph %d, want 0", next, n, h)
	}
}

// releaseOnConflict is a probe that, at the first lock conflict it sees,
// runs release: the holder's commit, standing in for a process the
// conflicting one yielded to at that probe call.
type releaseOnConflict struct {
	probe.Nop
	release func()
}

func (p *releaseOnConflict) Branch(name string, taken bool) {
	if name == "lock_conflict" && taken && p.release != nil {
		f := p.release
		p.release = nil
		f()
	}
}

// queueEnv records the queues processes park on; a Wait returns at once,
// as if the process had been woken.
type queueEnv struct {
	NopEnv
	parked []*WaitQueue
}

func (e *queueEnv) Wait(q *WaitQueue) { e.parked = append(e.parked, q) }

// TestRefusedTryPinsTheLockState: the holder commits between the waiter's
// refused try and its park (a probe call between them yields). The key's
// state must stay mapped, pinned by the waiter, and the waiter must park on
// that state's queue; resuming, it takes the lock, and its commit leaves
// the table empty.
func TestRefusedTryPinsTheLockState(t *testing.T) {
	env := &queueEnv{}
	eng := NewEngine(Config{BufferPoolPages: 16, Env: env})
	key := LockKey(1, 42)
	holder := eng.NewSession(1, nil)
	holder.Begin()
	holder.LockX(key)
	st := eng.Locks.locks[key]

	pb := &releaseOnConflict{}
	waiter := eng.NewSession(2, pb)
	pb.release = func() {
		holder.Commit()
		if got, ok := eng.Locks.locks[key]; !ok || got != st {
			t.Fatalf("after the holder's commit the key's state is %p (mapped %v), want the pinned %p", got, ok, st)
		}
		if st.waiting != 1 || len(st.holders) != 0 {
			t.Fatalf("pinned state: %d waiting, %d holders; want 1 and 0", st.waiting, len(st.holders))
		}
	}
	waiter.Begin()
	waiter.LockX(key)
	if pb.release != nil {
		t.Fatal("the waiter's lock never conflicted")
	}
	if len(env.parked) != 1 || env.parked[0] != st.queue {
		t.Fatalf("waiter parked on %v, want once on the key's queue %p", env.parked, st.queue)
	}
	if !eng.Locks.HeldBy(waiter.Txn().ID, key, LockX) {
		t.Fatal("the resumed waiter did not take the lock")
	}
	waiter.Commit()
	if n, h := eng.Locks.Keys(), eng.graph.Held(); n != 0 || h != 0 {
		t.Fatalf("after both commits the lock table keeps %d keys and the graph %d, want 0", n, h)
	}
	if len(eng.Locks.free) != 1 || eng.Locks.free[0] != st {
		t.Fatalf("free list %v, want the one recycled state", eng.Locks.free)
	}
}

// TestDeadlockVictimUnpins: a deadlock victim uncounts itself from the
// state its refused try pinned, so the aborts and commits that follow
// leave nothing behind.
func TestDeadlockVictimUnpins(t *testing.T) {
	env := &queueEnv{}
	eng := NewEngine(Config{BufferPoolPages: 16, Env: env})
	k1, k2 := LockKey(1, 1), LockKey(1, 2)
	s1, s2 := eng.NewSession(1, nil), eng.NewSession(2, nil)
	s1.Begin()
	s1.LockX(k1)
	s2.Begin()
	s2.LockX(k2)
	// s1 waits for k2: record the edge by hand, as a parked s1 would.
	eng.graph.setWait(s1.PID, LockRef{Key: k2})
	func() {
		defer func() {
			if r := recover(); r != ErrDeadlock {
				t.Fatalf("recovered %v, want ErrDeadlock", r)
			}
		}()
		s2.LockX(k1)
	}()
	if st := eng.Locks.locks[k1]; st.waiting != 0 {
		t.Fatalf("the victim left %d waiters counted on k1", st.waiting)
	}
	eng.graph.clearWait(s1.PID)
	s2.Abort()
	s1.Commit()
	if n, h := eng.Locks.Keys(), eng.graph.Held(); n != 0 || h != 0 {
		t.Fatalf("after the abort and the commit the lock table keeps %d keys and the graph %d, want 0", n, h)
	}
}
