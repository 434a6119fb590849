package db

// LogRecKind classifies WAL records.
type LogRecKind uint8

const (
	// LogUpdate records a physical page update with before/after images.
	LogUpdate LogRecKind = iota
	// LogInsert records a record insertion.
	LogInsert
	// LogCommit marks a transaction committed.
	LogCommit
	// LogAbort marks a transaction aborted (after undo).
	LogAbort
	// LogPrepare marks a distributed-transaction participant prepared: its
	// updates and locks are durable pending the coordinator's decision.
	LogPrepare
)

// LogRec is one write-ahead log record.
type LogRec struct {
	LSN    uint64
	Txn    uint64
	Kind   LogRecKind
	Page   PageID
	Slot   uint16
	Before []byte
	After  []byte
}

// WAL is the write-ahead log with group commit. Appends go to an in-memory
// buffer; a commit forces the buffer to stable storage. While one process's
// flush is in flight, other committers join the group and are released
// together when the leader's write completes — the machine simulates the
// blocking at the probe.Syscall crossing.
type WAL struct {
	Records []LogRec // since the last checkpoint: stable (flushed) prefix + buffered tail
	nextLSN uint64

	// FlushedLSN is the highest LSN known stable.
	FlushedLSN uint64
	// Flushing reports a group-commit write in flight.
	Flushing bool
	// Waiters is the queue of sessions blocked on group commit.
	Waiters *WaitQueue

	// Flushes counts physical log writes (group commits).
	Flushes uint64
	// GroupedCommits counts commits that piggybacked on another flush.
	GroupedCommits uint64
	// TotalAppended is the cumulative byte offset into the (circular) log
	// buffer; records from different processes pack contiguously, so
	// adjacent commits share cache lines — a real source of communication
	// misses on multiprocessors.
	TotalAppended int64
	bufBytes      int
}

// NewWAL creates an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1, Waiters: NewWaitQueue("log")}
}

// Append adds a record to the log buffer and returns its LSN and the byte
// offset at which it was placed in the log buffer.
func (w *WAL) Append(rec LogRec) (lsn uint64, offset int64) {
	rec.LSN = w.nextLSN
	w.nextLSN++
	w.Records = append(w.Records, rec)
	n := 32 + len(rec.Before) + len(rec.After)
	offset = w.TotalAppended
	w.TotalAppended += int64(n)
	w.bufBytes += n
	return rec.LSN, offset
}

// BufferedBytes returns the size of the unflushed tail, used by the engine
// to model log-buffer pressure.
func (w *WAL) BufferedBytes() int { return w.bufBytes }

// MarkFlushed advances the stable LSN after a physical write of everything
// up to target.
func (w *WAL) MarkFlushed(target uint64) {
	if target > w.FlushedLSN {
		w.FlushedLSN = target
	}
	w.bufBytes = 0
	w.Flushes++
}

// CurrentLSN returns the highest assigned LSN.
func (w *WAL) CurrentLSN() uint64 { return w.nextLSN - 1 }

// Env is the engine's view of the processes that run it: how a process
// blocks, and what time it is. The simulated machine parks the calling
// process and reads its CPU clock; NopEnv runs everything synchronously and
// has no clock (single-threaded tests, loaders). Env is the whole contract:
// the engine calls all three methods without testing for them.
type Env interface {
	// Wait parks the calling process on the queue until Wake.
	Wait(q *WaitQueue)
	// Wake releases processes parked on the queue (all of them; released
	// processes re-check their predicates).
	Wake(q *WaitQueue)
	// Now returns the running process's simulated time (instruction-times).
	// The engine records the inter-commit gap histogram the group-commit
	// auto-tuner reads the arrival process from; 0 means "no clock" (no
	// running process, or an environment without time) and records nothing.
	Now() uint64
}

// WaitQueue identifies a blocking point (group commit, a lock, ...). The
// machine attaches its own bookkeeping via the Tag.
type WaitQueue struct {
	Name string
	// Tag is owned by the Env implementation.
	Tag interface{}
}

// NewWaitQueue creates a named queue.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{Name: name} }

// NopEnv is the synchronous environment: Wait panics if it would ever be
// reached with a predicate that cannot progress, so single-threaded tests
// use engines configured to avoid blocking (they never conflict).
type NopEnv struct{}

// Wait implements Env; with a single process nothing can wake us, so this
// panics to flag misuse.
func (NopEnv) Wait(q *WaitQueue) {
	panic("db: NopEnv.Wait on " + q.Name + " (single-process engine cannot block)")
}

// Wake implements Env.
func (NopEnv) Wake(*WaitQueue) {}

// Now implements Env: the synchronous environment has no clock.
func (NopEnv) Now() uint64 { return 0 }
