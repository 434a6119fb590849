package db_test

import (
	"testing"

	"codelayout/internal/db"
)

// fakeEnv records Wait/Wake calls and executes queued wakeups inline, so
// lock-conflict paths can be exercised without the full machine.
type fakeEnv struct {
	waits  int
	wakes  int
	onWait func(q *db.WaitQueue)
}

func (f *fakeEnv) Wait(q *db.WaitQueue) {
	f.waits++
	if f.onWait != nil {
		f.onWait(q)
	}
}

func (f *fakeEnv) Wake(q *db.WaitQueue) { f.wakes++ }

func (f *fakeEnv) Now() uint64 { return 0 }

func TestLockConflictBlocksAndWakes(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	key := db.LockKey(3, 7)

	t1 := s1.Begin()
	s1.LockX(key)
	_ = t1

	// Session 2 conflicts; the fake env releases the lock from inside Wait
	// (as the machine would after scheduling session 1's commit).
	s2.Begin()
	released := false
	env.onWait = func(q *db.WaitQueue) {
		if !released {
			released = true
			s1.Commit() // releases the lock, wakes the queue
		}
	}
	s2.LockX(key) // retries after the "wake" and succeeds
	if env.waits == 0 {
		t.Fatal("no wait recorded on conflict")
	}
	if env.wakes == 0 {
		t.Fatal("release did not wake the queue")
	}
	if !eng.Locks.HeldBy(s2.Txn().ID, key, db.LockX) {
		t.Fatal("lock not transferred to waiter")
	}
	s2.Commit()
	if eng.Locks.Conflicts == 0 {
		t.Fatal("conflict not counted")
	}
}

func TestGroupCommitFollowersWait(t *testing.T) {
	env := &fakeEnv{}
	eng := db.NewEngine(db.Config{BufferPoolPages: 64, Env: env})
	tb := eng.CreateTable("t")
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	rid := tb.Insert(s1, []byte("xxxx"))

	// Simulate a flush in flight: session 2 commits while WAL.Flushing is
	// held by a phantom leader, then the env "completes" the leader's write
	// from inside Wait.
	s2.Begin()
	tb.Update(s2, rid, []byte("yyyy"))
	eng.WAL.Flushing = true
	env.onWait = func(q *db.WaitQueue) {
		// Leader finishes: everything appended so far becomes stable.
		eng.WAL.MarkFlushed(eng.WAL.CurrentLSN())
		eng.WAL.Flushing = false
	}
	s2.Commit()
	if env.waits == 0 {
		t.Fatal("follower did not wait on group commit")
	}
	if eng.WAL.GroupedCommits != 1 {
		t.Fatalf("grouped commits = %d", eng.WAL.GroupedCommits)
	}
	if eng.WAL.FlushedLSN != eng.WAL.CurrentLSN() {
		t.Fatal("commit record not stable")
	}
	_ = s1
}

func TestScratchAddrIsPerProcess(t *testing.T) {
	eng := db.NewEngine(db.Config{BufferPoolPages: 16})
	a := eng.NewSession(1, nil)
	b := eng.NewSession(2, nil)
	if a.ScratchAddr(0) == b.ScratchAddr(0) {
		t.Fatal("scratch regions must differ per process")
	}
	if a.ScratchAddr(0) == a.ScratchAddr(64) {
		t.Fatal("offsets must differentiate addresses")
	}
}

func TestWALOffsetsPackContiguously(t *testing.T) {
	w := db.NewWAL()
	_, off1 := w.Append(db.LogRec{Txn: 1, Kind: db.LogUpdate, Before: make([]byte, 10), After: make([]byte, 10)})
	_, off2 := w.Append(db.LogRec{Txn: 2, Kind: db.LogCommit})
	if off1 != 0 {
		t.Fatalf("first offset = %d", off1)
	}
	if off2 != 32+20 {
		t.Fatalf("second offset = %d, want %d", off2, 32+20)
	}
}
