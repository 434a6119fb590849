package db

import "iter"

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
// blocking behind the engine's Env.
//
// The records since the last checkpoint (the stable, flushed prefix and the
// buffered tail) sit in chunks that are never copied or moved: an append
// that finds the last chunk full opens a new one, walFirstChunk records for
// the first and as many as the log holds for each later one, up to
// walMaxChunk. Only the last chunk has spare capacity, and an appended
// record is never rewritten, so copies of the log (CopyFrom) share every
// chunk and clip the last one's capacity: their appends open chunks of their
// own and never write into the source's.
type WAL struct {
	chunks  [][]LogRec
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

// walFirstChunk and walMaxChunk bound a log chunk's capacity in records.
// The first chunk is small, so an engine that logs little allocates little;
// doubling the log with each later chunk keeps the chunk count logarithmic
// up to the cap, after which a long run adds one walMaxChunk chunk at a time.
const (
	walFirstChunk = 8
	walMaxChunk   = 4096
)

// NewWAL creates an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1, Waiters: NewWaitQueue("log")}
}

// Append adds a record to the log buffer and returns its LSN and the byte
// offset at which it was placed in the log buffer.
func (w *WAL) Append(rec LogRec) (lsn uint64, offset int64) {
	rec.LSN = w.nextLSN
	w.nextLSN++
	last := len(w.chunks) - 1
	if last < 0 || len(w.chunks[last]) == cap(w.chunks[last]) {
		w.chunks = append(w.chunks, make([]LogRec, 0, min(max(w.Len(), walFirstChunk), walMaxChunk)))
		last++
	}
	w.chunks[last] = append(w.chunks[last], rec)
	n := 32 + len(rec.Before) + len(rec.After)
	offset = w.TotalAppended
	w.TotalAppended += int64(n)
	w.bufBytes += n
	return rec.LSN, offset
}

// Len returns the number of records since the last checkpoint.
func (w *WAL) Len() int {
	n := 0
	for _, c := range w.chunks {
		n += len(c)
	}
	return n
}

// All yields the records since the last checkpoint in LSN order.
func (w *WAL) All() iter.Seq[LogRec] {
	return func(yield func(LogRec) bool) {
		for _, c := range w.chunks {
			for _, rec := range c {
				if !yield(rec) {
					return
				}
			}
		}
	}
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

// Env is the engine's only channel for anything that takes time: a process
// blocking on a queue, a data-file read, the group-commit window and the
// physical log write. The engine never reads a clock. The simulated machine
// runs each crossing's kernel service at the exact point the engine calls
// it, charges its latency to the running process, and owns the group-commit
// policy (HoldFlush) and the commit arrival record (Committed) its tuners
// read. NopEnv takes no time at all (single-threaded tests, loaders). Env is
// the whole contract: the engine calls every method without testing for it.
type Env interface {
	// Wait parks the calling process on the queue until Wake.
	Wait(q *WaitQueue)
	// Wake releases processes parked on the queue (all of them; released
	// processes re-check their predicates).
	Wake(q *WaitQueue)
	// Pread reads a page that missed in the buffer pool from the data file.
	Pread()
	// HoldFlush is called by a flush leader before it picks its target: the
	// environment may hold the leader for the shard's batching window, so
	// commits appended meanwhile join the flush. It reports whether the
	// shard flushes per commit, in which case the leader writes only its
	// own commit's prefix.
	HoldFlush(shard int) (perCommit bool)
	// LogWrite is the leader's physical log write.
	LogWrite()
	// Committed reports a commit on the shard's engine.
	Committed(shard int)
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

// NopEnv is the synchronous environment: nothing takes time, a leader
// flushes at once and batches (no window, no per-commit flushing), and Wait
// panics, because with a single process nothing could wake it — so
// single-threaded tests use engines that never conflict.
type NopEnv struct{}

// Wait implements Env; with a single process nothing can wake us, so this
// panics to flag misuse.
func (NopEnv) Wait(q *WaitQueue) {
	panic("db: NopEnv.Wait on " + q.Name + " (single-process engine cannot block)")
}

// Wake implements Env.
func (NopEnv) Wake(*WaitQueue) {}

// Pread implements Env.
func (NopEnv) Pread() {}

// HoldFlush implements Env: no window, batched flushes.
func (NopEnv) HoldFlush(int) bool { return false }

// LogWrite implements Env.
func (NopEnv) LogWrite() {}

// Committed implements Env.
func (NopEnv) Committed(int) {}
