package db_test

import (
	"fmt"
	"slices"
	"testing"

	"codelayout/internal/db"
)

// fakeEnv records Wait/Wake calls and executes queued wakeups inline, so
// lock-conflict paths can be exercised without the full machine. Everything
// else takes no time (NopEnv).
type fakeEnv struct {
	db.NopEnv
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

// recordingEnv logs every Env call in order. onHold runs once inside the
// next HoldFlush, before the leader picks its flush target; onWait runs
// inside every Wait.
type recordingEnv struct {
	calls     []string
	perCommit bool
	onHold    func()
	onWait    func(q *db.WaitQueue)
}

func (r *recordingEnv) Wait(q *db.WaitQueue) {
	r.calls = append(r.calls, "wait "+q.Name)
	if r.onWait != nil {
		r.onWait(q)
	}
}

func (r *recordingEnv) Wake(q *db.WaitQueue) { r.calls = append(r.calls, "wake "+q.Name) }
func (r *recordingEnv) Pread()               { r.calls = append(r.calls, "pread") }
func (r *recordingEnv) LogWrite()            { r.calls = append(r.calls, "logwrite") }

func (r *recordingEnv) HoldFlush(shard int) bool {
	r.calls = append(r.calls, fmt.Sprintf("hold %d", shard))
	if f := r.onHold; f != nil {
		r.onHold = nil
		f()
	}
	return r.perCommit
}

func (r *recordingEnv) Committed(shard int) {
	r.calls = append(r.calls, fmt.Sprintf("committed %d", shard))
}

// take returns the calls logged since the last take.
func (r *recordingEnv) take() []string {
	c := r.calls
	r.calls = nil
	return c
}

// count returns how many of calls are c.
func count(calls []string, c string) (n int) {
	for _, x := range calls {
		if x == c {
			n++
		}
	}
	return n
}

// TestEnvIsTheOnlyClock drives one engine through a recording Env and a
// two-page buffer pool: a pool miss is an Env.Pread, a flush leader asks
// HoldFlush(shard) and then writes (LogWrite), every commit reports
// Committed(shard) once, and a lock conflict waits on a "lock" queue. A
// record appended while the leader is held joins a batched flush; a
// per-commit flush writes only up to the leader's own commit record.
func TestEnvIsTheOnlyClock(t *testing.T) {
	if (db.NopEnv{}).HoldFlush(0) {
		t.Fatal("NopEnv.HoldFlush = true, want batched flushes")
	}
	for _, perCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("perCommit=%v", perCommit), func(t *testing.T) {
			const shard = 3
			env := &recordingEnv{perCommit: perCommit}
			eng := db.NewEngine(db.Config{BufferPoolPages: 2, Env: env, Shard: shard})
			tb := eng.CreateTable("t")
			s1, s2 := eng.NewSession(1, nil), eng.NewSession(2, nil)
			rec := make([]byte, 1000)
			var rids []db.RID
			for len(tb.Pages) < 3 {
				rids = append(rids, tb.Insert(s1, rec))
			}
			env.take()

			tb.Fetch(s1, rids[0]) // the first page was evicted for the third
			if got := env.take(); !slices.Equal(got, []string{"pread"}) {
				t.Fatalf("pool miss: Env calls %q, want [pread]", got)
			}
			tb.Fetch(s1, rids[0])
			if got := env.take(); len(got) != 0 {
				t.Fatalf("pool hit: Env calls %q, want none", got)
			}

			s1.Begin()
			tb.Update(s1, rids[0], rec)
			var own, late uint64
			env.onHold = func() {
				own = eng.WAL.CurrentLSN()
				late = s2.LogAppend(db.LogRec{Kind: db.LogUpdate})
			}
			s1.Commit()
			want := []string{fmt.Sprintf("hold %d", shard), "logwrite", "wake log", fmt.Sprintf("committed %d", shard)}
			if got := env.take(); !slices.Equal(got, want) {
				t.Fatalf("commit: Env calls %q, want %q", got, want)
			}
			wantFlushed := late
			if perCommit {
				wantFlushed = own
			}
			if eng.WAL.FlushedLSN != wantFlushed {
				t.Fatalf("FlushedLSN = %d, want %d (leader's commit %d, appended while held %d)",
					eng.WAL.FlushedLSN, wantFlushed, own, late)
			}

			key := db.LockKey(1, 7)
			s1.Begin()
			s1.LockX(key)
			s2.Begin()
			env.onWait = func(q *db.WaitQueue) {
				env.onWait = nil
				s1.Commit() // releases key and wakes its queue
			}
			s2.LockX(key)
			s2.Commit()
			got := env.take()
			if len(got) == 0 || got[0] != "wait lock" || count(got, "wait lock") != 1 {
				t.Fatalf("lock conflict: Env calls %q, want one wait, on the lock queue, first", got)
			}
			if n := count(got, fmt.Sprintf("committed %d", shard)); n != 2 || eng.Committed != 3 {
				t.Fatalf("%d Committed calls for two commits (engine count %d, want 3): %q", n, eng.Committed, got)
			}
		})
	}
}

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
