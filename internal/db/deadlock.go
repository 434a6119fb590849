package db

import "errors"

// ErrDeadlock is the panic value a Session raises when its lock request
// would close a waits-for cycle: the requester is the victim and must abort.
// The machine recovers it at the transaction boundary (after resetting the
// emitter — the modeled engine aborts via longjmp, as real servers do),
// aborts the process's in-flight transactions, and retries the request.
var ErrDeadlock = errors.New("db: deadlock victim")

// LockRef names one lockable resource across a group of sharded engines.
type LockRef struct {
	Shard int
	Key   uint64
}

// WaitGraph is the global waits-for graph of a (possibly sharded) engine
// group: which process waits on which lock, and which processes hold each
// lock. One graph is shared by every shard of a machine, so distributed
// deadlocks — cycles whose edges span shards, which no per-shard lock
// manager can see — are detected before the victim ever parks.
//
// The graph is keyed by process ID, not transaction ID: a server process
// runs at most one transaction per shard, and a cross-shard transaction's
// branches all block the same process, which is exactly the node a
// deadlock cycle passes through. The machine runs one process at a time,
// so no internal locking is needed.
type WaitGraph struct {
	waits   map[int]LockRef
	holders map[LockRef][]int
	spare   [][]int // emptied holder slices, for hold to reuse
}

// NewWaitGraph creates an empty graph.
func NewWaitGraph() *WaitGraph {
	return &WaitGraph{
		waits:   make(map[int]LockRef),
		holders: make(map[LockRef][]int),
	}
}

// hold records that pid holds ref (no-op if already recorded).
func (g *WaitGraph) hold(ref LockRef, pid int) {
	hs, ok := g.holders[ref]
	for _, h := range hs {
		if h == pid {
			return
		}
	}
	if n := len(g.spare); !ok && n > 0 {
		hs = g.spare[n-1]
		g.spare = g.spare[:n-1]
	}
	g.holders[ref] = append(hs, pid)
}

// unhold drops pid's hold on ref. A ref left with no holders leaves the
// map, its slice kept for the next hold.
func (g *WaitGraph) unhold(ref LockRef, pid int) {
	hs := g.holders[ref]
	for i, h := range hs {
		if h == pid {
			hs = append(hs[:i], hs[i+1:]...)
			if len(hs) == 0 {
				delete(g.holders, ref)
				g.spare = append(g.spare, hs)
				return
			}
			g.holders[ref] = hs
			return
		}
	}
}

// Held returns how many locks have recorded holders (tests).
func (g *WaitGraph) Held() int { return len(g.holders) }

// setWait records that pid is about to park waiting for ref.
func (g *WaitGraph) setWait(pid int, ref LockRef) { g.waits[pid] = ref }

// clearWait removes pid's wait edge (called when the process wakes).
func (g *WaitGraph) clearWait(pid int) { delete(g.waits, pid) }

// ClearWait drops pid's wait edge the moment the process is made runnable.
// The environment calls it from Wake: between wake-up and actually resuming
// (when the process re-checks its lock and either acquires or re-parks),
// the recorded edge is stale — a runnable process is not blocked — and a
// cycle check crossing it would abort victims for phantom deadlocks.
func (g *WaitGraph) ClearWait(pid int) { g.clearWait(pid) }

// cycles reports whether pid waiting on ref would close a waits-for cycle:
// it walks from ref's holders along each holder's own wait edge, looking
// for a path back to pid. Holder slices keep insertion order, so the walk
// is deterministic.
//
// At the top level the requester's own hold on ref is not an edge: an S→X
// upgrader holds the lock it waits for and is blocked only by the other
// holders (two upgraders blocking each other still cycle through the
// recursive levels, where reaching pid means someone genuinely waits on a
// lock pid holds).
func (g *WaitGraph) cycles(pid int, ref LockRef) bool {
	seen := make(map[int]bool, 8)
	var dfs func(r LockRef, skipSelf bool) bool
	dfs = func(r LockRef, skipSelf bool) bool {
		for _, h := range g.holders[r] {
			if h == pid {
				if skipSelf {
					continue
				}
				return true
			}
			if seen[h] {
				continue
			}
			seen[h] = true
			if next, ok := g.waits[h]; ok && dfs(next, false) {
				return true
			}
		}
		return false
	}
	return dfs(ref, true)
}
