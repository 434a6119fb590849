package db

import (
	"encoding/binary"
	"fmt"
	"iter"
)

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
// The log stores the bytes it models. A record is a walHeader-byte header
// followed by its Before and After bytes, so the bytes stored since the last
// checkpoint are exactly the growth of TotalAppended. The records sit in
// byte chunks that are never copied, moved or rewritten: a record never
// straddles two chunks, and an append that finds no room for its record in
// the last chunk opens a new one, walFirstChunk bytes for the first and as
// many as the log holds for each later one, up to walMaxChunk (or the
// record's size, if larger). Only the last chunk has spare capacity, so
// copies of the log (CopyFrom) share every chunk and clip the last one's
// capacity: their appends open chunks of their own and never write into the
// source's.
type WAL struct {
	chunks  [][]byte
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

// walHeader is a record's header size. The header is little-endian: LSN
// [0,8), Txn [8,16), Page [16,20), Slot [20,22), len(Before) [22,24),
// len(After) [24,26), Kind [26], and five zero bytes.
const walHeader = 32

// maxLogImage is the longest image a log record holds: its length is a
// 16-bit header field. A record is at most one page, so a longer image is
// an engine bug, and Append panics on it.
const maxLogImage = 1<<16 - 1

// walFirstChunk and walMaxChunk bound a log chunk's capacity in bytes. The
// first chunk is small, so an engine that logs little allocates little;
// doubling the log with each later chunk keeps the chunk count logarithmic
// up to the cap, after which a long run adds one walMaxChunk chunk at a time.
const (
	walFirstChunk = 512
	walMaxChunk   = 64 << 10
)

// NewWAL creates an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1, Waiters: NewWaitQueue("log")}
}

// Append copies a record into the log buffer. It returns the record's LSN,
// the byte offset at which it was placed in the log buffer, and the log's
// copy of rec.Before (a read-only view that stays valid and unchanged for as
// long as the caller holds it). An image longer than maxLogImage panics.
func (w *WAL) Append(rec LogRec) (lsn uint64, offset int64, before []byte) {
	nb, na := len(rec.Before), len(rec.After)
	if nb > maxLogImage || na > maxLogImage {
		panic(fmt.Sprintf("db: log images of %d and %d bytes; an image holds at most %d", nb, na, maxLogImage))
	}
	n := walHeader + nb + na
	last := len(w.chunks) - 1
	if last < 0 || cap(w.chunks[last])-len(w.chunks[last]) < n {
		w.chunks = append(w.chunks, make([]byte, 0, max(min(max(w.storedBytes(), walFirstChunk), walMaxChunk), n)))
		last++
	}
	lsn = w.nextLSN
	w.nextLSN++
	c := w.chunks[last]
	at := len(c) + walHeader
	c = binary.LittleEndian.AppendUint64(c, lsn)
	c = binary.LittleEndian.AppendUint64(c, rec.Txn)
	c = binary.LittleEndian.AppendUint32(c, uint32(rec.Page))
	c = binary.LittleEndian.AppendUint16(c, rec.Slot)
	c = binary.LittleEndian.AppendUint16(c, uint16(nb))
	c = binary.LittleEndian.AppendUint16(c, uint16(na))
	c = append(c, byte(rec.Kind), 0, 0, 0, 0, 0)
	c = append(c, rec.Before...)
	c = append(c, rec.After...)
	w.chunks[last] = c
	offset = w.TotalAppended
	w.TotalAppended += int64(n)
	w.bufBytes += n
	return lsn, offset, view(c, at, nb)
}

// storedBytes returns the bytes the log holds since the last checkpoint.
func (w *WAL) storedBytes() int {
	n := 0
	for _, c := range w.chunks {
		n += len(c)
	}
	return n
}

// view returns c[at:at+n] with its capacity capped, or nil when n is 0.
func view(c []byte, at, n int) []byte {
	if n == 0 {
		return nil
	}
	return c[at : at+n : at+n]
}

// decode reads the record at the start of b and returns it with its size.
// Its images are views of b (nil when empty).
func decode(b []byte) (LogRec, int) {
	nb := int(binary.LittleEndian.Uint16(b[22:]))
	na := int(binary.LittleEndian.Uint16(b[24:]))
	return LogRec{
		LSN:    binary.LittleEndian.Uint64(b),
		Txn:    binary.LittleEndian.Uint64(b[8:]),
		Page:   PageID(binary.LittleEndian.Uint32(b[16:])),
		Slot:   binary.LittleEndian.Uint16(b[20:]),
		Kind:   LogRecKind(b[26]),
		Before: view(b, walHeader, nb),
		After:  view(b, walHeader+nb, na),
	}, walHeader + nb + na
}

// Len returns the number of records since the last checkpoint.
func (w *WAL) Len() int {
	n := 0
	for range w.All() {
		n++
	}
	return n
}

// All yields the records since the last checkpoint in LSN order, decoded
// from the log's bytes. A yielded record's Before and After are read-only
// views of the log with their capacity capped; an empty image, whether it
// was appended nil or empty, reads back as nil.
func (w *WAL) All() iter.Seq[LogRec] {
	return func(yield func(LogRec) bool) {
		for _, c := range w.chunks {
			for off := 0; off < len(c); {
				rec, n := decode(c[off:])
				if !yield(rec) {
					return
				}
				off += n
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
