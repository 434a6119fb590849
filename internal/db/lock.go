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

// lockState tracks one lockable resource.
type lockState struct {
	holders map[uint64]LockMode // txn ID → strongest held mode
	queue   *WaitQueue
	waiting int
}

// LockMgr is a strict two-phase row lock manager. Conflicting requests park
// the calling process on the resource's wait queue; releases wake the queue
// and woken processes re-check compatibility (no lock conversions beyond
// S→X upgrade by a sole holder).
//
// Deadlock note: on one engine TPC-B acquires its locks in a globally
// consistent order (account, teller, branch — distinct key spaces in
// ascending space order), so its waits never form a cycle. Sharded TPC-B
// takes a remote account last and can deadlock across shards; the machine's
// shared WaitGraph finds such cycles and aborts a victim.
type LockMgr struct {
	locks     map[uint64]*lockState
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

// try attempts to acquire without blocking. It reports whether the lock was
// granted and whether the grant is a new hold (false for re-acquisitions
// and upgrades, which must not be released twice).
func (lm *LockMgr) try(txn uint64, key uint64, mode LockMode) (granted, isNew bool) {
	st, ok := lm.locks[key]
	if !ok {
		st = &lockState{holders: make(map[uint64]LockMode, 2), queue: NewWaitQueue("lock")}
		lm.locks[key] = st
	}
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

// queueFor returns the wait queue of a key (creating state as needed).
func (lm *LockMgr) queueFor(key uint64) *WaitQueue {
	st, ok := lm.locks[key]
	if !ok {
		st = &lockState{holders: make(map[uint64]LockMode, 2), queue: NewWaitQueue("lock")}
		lm.locks[key] = st
	}
	return st.queue
}

// release drops txn's hold on key and reports whether waiters should be
// woken.
func (lm *LockMgr) release(txn uint64, key uint64) (bool, error) {
	st, ok := lm.locks[key]
	if !ok {
		return false, fmt.Errorf("lock: release of unknown key %#x", key)
	}
	if _, mine := st.holders[txn]; !mine {
		return false, fmt.Errorf("lock: txn %d releasing unheld key %#x", txn, key)
	}
	delete(st.holders, txn)
	return st.waiting > 0, nil
}

// HeldBy reports whether txn holds key at least at the given mode (tests).
func (lm *LockMgr) HeldBy(txn uint64, key uint64, mode LockMode) bool {
	st, ok := lm.locks[key]
	if !ok {
		return false
	}
	m, mine := st.holders[txn]
	return mine && m >= mode
}
