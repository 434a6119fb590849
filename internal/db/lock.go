package db

import "fmt"

// LockMode is the requested lock strength.
type LockMode uint8

const (
	// LockS is a shared (read) lock.
	LockS LockMode = iota
	// LockX is an exclusive (write) lock.
	LockX
)

func (m LockMode) String() string {
	if m == LockX {
		return "X"
	}
	return "S"
}

// lockState tracks one lockable resource while it is held or waited for.
// A state with no holders and no waiters leaves the table for the manager's
// free list; a waiter pins its key's state from the refused try that makes
// it wait until it resumes, since any probe call in between may yield to a
// process that releases the key.
type lockState struct {
	holders map[uint64]LockMode // txn ID → strongest held mode
	queue   *WaitQueue
	waiting int
}

// LockMgr is a strict two-phase row lock manager. Conflicting requests park
// the calling process on the resource's wait queue; releases wake the queue
// and woken processes re-check compatibility (no lock conversions beyond
// S→X upgrade by a sole holder). The table holds only keys that are held or
// waited for: released states are recycled, so it does not grow with the
// number of keys ever locked.
//
// Deadlock note: on one engine TPC-B acquires its locks in a globally
// consistent order (account, teller, branch — distinct key spaces in
// ascending space order), so its waits never form a cycle. Sharded TPC-B
// takes a remote account last and can deadlock across shards; the machine's
// shared WaitGraph finds such cycles and aborts a victim.
type LockMgr struct {
	locks     map[uint64]*lockState
	free      []*lockState // unused states, holders empty, for try to reuse
	Conflicts uint64
}

// NewLockMgr creates an empty lock manager.
func NewLockMgr() *LockMgr {
	return &LockMgr{locks: make(map[uint64]*lockState)}
}

// LockKey composes a lockable key from a key space and a row identifier.
func LockKey(space uint8, id uint64) uint64 {
	return uint64(space)<<56 | (id & (1<<56 - 1))
}

// try attempts to acquire without blocking. It returns key's state and
// reports whether the lock was granted and whether the grant is a new hold
// (false for re-acquisitions and upgrades, which must not be released
// twice). A refused request counts itself a waiter on the returned state,
// pinning it: the caller uncounts through unpin once it stops waiting.
func (lm *LockMgr) try(txn uint64, key uint64, mode LockMode) (st *lockState, granted, isNew bool) {
	st, ok := lm.locks[key]
	if !ok {
		if n := len(lm.free); n > 0 {
			st = lm.free[n-1]
			lm.free = lm.free[:n-1]
		} else {
			st = &lockState{holders: make(map[uint64]LockMode, 2), queue: NewWaitQueue("lock")}
		}
		lm.locks[key] = st
	}
	granted, isNew = st.grant(txn, mode)
	if !granted {
		st.waiting++
	}
	return st, granted, isNew
}

// grant is try's compatibility check on one state.
func (st *lockState) grant(txn uint64, mode LockMode) (granted, isNew bool) {
	if held, mine := st.holders[txn]; mine {
		if held >= mode {
			return true, false
		}
		// S→X upgrade permitted only as sole holder.
		if len(st.holders) == 1 {
			st.holders[txn] = mode
			return true, false
		}
		return false, false
	}
	if len(st.holders) == 0 {
		st.holders[txn] = mode
		return true, true
	}
	if mode == LockS {
		for _, m := range st.holders {
			if m == LockX {
				return false, false
			}
		}
		st.holders[txn] = mode
		return true, true
	}
	return false, false
}

// unpin uncounts a waiter try counted on key's state.
func (lm *LockMgr) unpin(key uint64, st *lockState) {
	st.waiting--
	lm.recycle(key, st)
}

// recycle moves key's state to the free list if nothing holds or awaits it.
func (lm *LockMgr) recycle(key uint64, st *lockState) {
	if st.waiting == 0 && len(st.holders) == 0 {
		delete(lm.locks, key)
		lm.free = append(lm.free, st)
	}
}

// release drops txn's hold on key. It returns the key's wait queue if
// waiters should be woken, nil otherwise.
func (lm *LockMgr) release(txn uint64, key uint64) (*WaitQueue, error) {
	st, ok := lm.locks[key]
	if !ok {
		return nil, fmt.Errorf("lock: release of unknown key %#x", key)
	}
	if _, mine := st.holders[txn]; !mine {
		return nil, fmt.Errorf("lock: txn %d releasing unheld key %#x", txn, key)
	}
	delete(st.holders, txn)
	if st.waiting > 0 {
		return st.queue, nil
	}
	lm.recycle(key, st)
	return nil, nil
}

// Keys returns how many keys have lock state: keys held or waited for
// (tests).
func (lm *LockMgr) Keys() int { return len(lm.locks) }

// HeldBy reports whether txn holds key at least at the given mode (tests).
func (lm *LockMgr) HeldBy(txn uint64, key uint64, mode LockMode) bool {
	st, ok := lm.locks[key]
	if !ok {
		return false
	}
	m, mine := st.holders[txn]
	return mine && m >= mode
}
