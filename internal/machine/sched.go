package machine

import (
	"fmt"
	"iter"

	"codelayout/internal/kernel"
)

// maxSchedulerSteps is a failsafe against livelock in buggy configurations.
const maxSchedulerSteps = 200_000_000

// Run executes the configured warmup and measured transactions and returns
// the result. It is single-use: create a new Machine per run; a second call
// is an error.
func (m *Machine) Run() (Result, error) {
	if m.ran {
		return Result{}, fmt.Errorf("machine: Run called twice; create a new Machine per run")
	}
	m.ran = true
	for _, p := range m.procs {
		p.next, p.stop = iter.Pull(func(yield func(yieldMsg) bool) { p.run(m, yield) })
	}
	defer m.killAll()

	if m.cfg.WarmupTxns == 0 {
		m.openGate()
	}
	steps := 0
	for m.committed < m.cfg.Transactions {
		steps++
		if steps > maxSchedulerSteps {
			return m.closeGate(), fmt.Errorf("machine: scheduler step limit exceeded")
		}
		c, p, msg, err := m.step(nil)
		if err != nil {
			return m.closeGate(), err
		}
		if p == nil {
			continue // clocks advanced past an idle gap
		}
		if msg.kind == yTxnDone {
			if m.measuring {
				m.committed++
				if m.ro != nil {
					if err := m.reoptTick(); err != nil {
						return m.closeGate(), err
					}
				}
			} else {
				m.warmCommitted++
				if m.warmCommitted >= m.cfg.WarmupTxns {
					m.openGate()
					if m.cfg.AutoGroupCommit != AutoGCOff {
						m.tuneGroupCommit()
					}
				}
			}
			if m.ro != nil && m.ro.fencing {
				// Epoch fence: park at the boundary instead of requeueing;
				// the swap fires once every live process is parked.
				m.reoptPark(p)
				continue
			}
			p.state = stRunnable
			// Processes continue until they block; front of queue keeps the
			// cache-warm process running, as a real scheduler would.
			c.runq.pushFront(p)
		}
	}

	// Quiesce below runs outside the measured phase: the gate closes first,
	// so drained work perturbs no result field and reaches no sink.
	m.closeGate()
	m.res.Committed = uint64(m.committed)
	for _, e := range m.engs {
		m.res.GroupedCommits += e.WAL.GroupedCommits
		m.res.LogFlushes += e.WAL.Flushes
		m.res.LockConflicts += e.Locks.Conflicts
		m.res.Deadlocks += e.Deadlocks
		m.res.BufMisses += e.Pool.Misses
	}
	m.res.Latency = m.latencySummary()
	if m.ro != nil && m.ro.postSwap != nil {
		m.res.PostSwapP99 = m.ro.postSwap.summary().P99
	}
	// Quiesce: run every surviving process to its next transaction boundary,
	// so the database holds no in-flight transactions (workload invariant
	// checks audit a consistent state, the way TPC consistency audits run
	// against a quiesced system).
	if err := m.drain(); err != nil {
		return m.res, err
	}
	return m.res, nil
}

// step performs one scheduler decision: it picks the CPU with the earliest
// event, wakes expired IO, advances clocks past idle gaps, and runs the next
// runnable process (not matched by skip) to its yield. Blocking yields
// (quantum, IO, waits) are handled here; yTxnDone is returned for the caller
// to place the process. A nil proc with nil error means only clocks moved or
// a skipped process was discarded — the caller should loop.
func (m *Machine) step(skip func(*proc) bool) (*cpu, *proc, yieldMsg, error) {
	var none yieldMsg
	c := m.pickCPU()
	if c == nil {
		return nil, nil, none, fmt.Errorf("machine: deadlock — no runnable or waking process")
	}
	m.wakeExpired(c)
	if c.runq.n == 0 {
		// Idle until this CPU's next IO completion.
		next := c.earliestWake()
		if next > c.front.Clock {
			if m.measuring {
				m.res.IdleInstrs += next - c.front.Clock
			}
			c.front.Clock = next
		}
		return c, nil, none, nil
	}
	p := c.runq.popFront()
	if skip != nil && skip(p) {
		return c, nil, none, nil
	}
	p.state = stRunning
	p.emit.Budget = int64(m.cfg.QuantumInstr)
	m.running = p
	msg, alive := p.next()
	m.running = nil
	if !alive {
		// run never returns on its own: the process crashed.
		return c, nil, none, fmt.Errorf("machine: process %d panicked: %v", p.id, p.panicked)
	}
	switch msg.kind {
	case yQuantum:
		c.kern.RunAuto(kernel.SvcSwitch)
		p.state = stRunnable
		c.runq.pushBack(p)
	case yBlockIO:
		p.state = stBlockedIO
		p.wakeAt = c.front.Clock + msg.ioDelay
		c.blocked = append(c.blocked, p)
		c.kern.RunAuto(kernel.SvcSwitch)
	case yWait:
		p.state = stBlockedWait
		c.kern.RunAuto(kernel.SvcSwitch)
	}
	return c, p, msg, nil
}

// drain continues deterministic scheduling until every live process parks at
// a transaction boundary. Processes reaching the boundary are not requeued;
// strict 2PL guarantees they hold no locks there, so the rest keep making
// progress.
func (m *Machine) drain() error {
	parked := make(map[*proc]bool, len(m.procs))
	// Processes with no transaction in flight on any shard are already at a
	// boundary (strict 2PL: no locks, no undo); only mid-transaction
	// processes run.
	for _, p := range m.procs {
		if !p.inTxn() {
			parked[p] = true
		}
	}
	steps := 0
	for len(parked) < len(m.procs) {
		steps++
		if steps > maxSchedulerSteps {
			return fmt.Errorf("machine: drain step limit exceeded")
		}
		// Processes woken after parking stay at their boundary.
		_, p, msg, err := m.step(func(p *proc) bool { return parked[p] })
		if err != nil {
			return fmt.Errorf("%w (while draining to quiescence)", err)
		}
		if p != nil && msg.kind == yTxnDone {
			p.state = stRunnable
			parked[p] = true
		}
	}
	return nil
}

// pickCPU returns the CPU with the earliest next event (runnable process or
// IO completion); nil when nothing can ever run again.
func (m *Machine) pickCPU() *cpu {
	var best *cpu
	var bestAt uint64
	for _, c := range m.cpus {
		var at uint64
		switch {
		case c.runq.n > 0:
			at = c.front.Clock
		case len(c.blocked) > 0:
			at = c.earliestWake()
		default:
			continue
		}
		if best == nil || at < bestAt || (at == bestAt && c.id < best.id) {
			best, bestAt = c, at
		}
	}
	return best
}

func (c *cpu) earliestWake() uint64 {
	var at uint64 = ^uint64(0)
	for _, p := range c.blocked {
		if p.wakeAt < at {
			at = p.wakeAt
		}
	}
	return at
}

// wakeExpired moves IO-blocked processes whose deadline passed onto the run
// queue, in deterministic (wakeAt, pid) order: it takes the earliest expired
// one out of c.blocked until none is left (a CPU has a handful of processes),
// so nothing is allocated or sorted.
func (m *Machine) wakeExpired(c *cpu) {
	for {
		var first *proc
		at := -1
		for i, p := range c.blocked {
			if p.wakeAt <= c.front.Clock && (first == nil || p.wakeAt < first.wakeAt ||
				(p.wakeAt == first.wakeAt && p.id < first.id)) {
				first, at = p, i
			}
		}
		if first == nil {
			return
		}
		last := len(c.blocked) - 1
		c.blocked[at] = c.blocked[last]
		c.blocked = c.blocked[:last]
		first.state = stRunnable
		c.runq.pushBack(first)
	}
}

// runQueue is one CPU's run queue: a ring sized once for the CPU's processes
// (a process is queued at most once), so the scheduler's push-front on every
// commit and its pops never allocate.
type runQueue struct {
	buf     []*proc
	head, n int
}

func (q *runQueue) checkRoom() {
	if q.n == len(q.buf) {
		panic("machine: run queue overflow: a process queued twice")
	}
}

func (q *runQueue) pushBack(p *proc) {
	q.checkRoom()
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *runQueue) pushFront(p *proc) {
	q.checkRoom()
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
	q.buf[q.head] = p
	q.n++
}

func (q *runQueue) popFront() *proc {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// killAll unwinds every process: one parked in a yield panics out of it with
// the kill sentinel, one that never started or already returned is a no-op.
func (m *Machine) killAll() {
	for _, p := range m.procs {
		p.stop()
	}
}
