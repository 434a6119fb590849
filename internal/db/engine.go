package db

import (
	"fmt"

	"codelayout/internal/probe"
)

// Engine is the shared database instance (the SGA): buffer pool, WAL, lock
// manager, catalogs. Server processes share one Engine through per-process
// Sessions; the simulated machine runs exactly one process at a time, so no
// internal locking is needed (as with real dedicated-server processes
// synchronizing through latches, which the models charge as library code).
type Engine struct {
	Disk  *Disk
	Pool  *BufferPool
	WAL   *WAL
	Locks *LockMgr
	Env   Env

	// Shard is this engine's index within a sharded group (0 standalone).
	// Page IDs and shared-structure addresses are offset per shard, so the
	// shards' buffer pools, log buffers and lock tables occupy disjoint
	// regions of the modeled address space.
	Shard int

	graph *WaitGraph

	tables    map[string]*Table
	btrees    map[string]*BTree
	pageBase  PageID
	nextPage  PageID
	pageLimit PageID
	nextTxn   uint64

	// fieldHints holds per-table physical record layouts installed before
	// the workload loads (SetFieldHints); CreateTable applies them. hintsKey
	// is their canonical spelling, the Hints of the engine's Geometry.
	fieldHints map[string][]FieldDef
	hintsKey   string

	// Committed counts committed transactions.
	Committed uint64
	// Aborted counts aborted transactions.
	Aborted uint64
	// Deadlocks counts victim aborts forced by deadlock detection.
	Deadlocks uint64
}

// ShardPageStride is the default page-ID distance between consecutive
// shards' allocation ranges (64 MB of page addresses per shard; see
// Config.PageStride for groups that pack more shards into the region).
const ShardPageStride PageID = 1 << 13

// Config sizes the engine.
type Config struct {
	// BufferPoolPages caps resident pages. Size it to hold the whole
	// database to reproduce the paper's cached-tables setup.
	BufferPoolPages int
	// Env is what takes time (blocking, reads, log flushes); nil means
	// NopEnv (single process, no time).
	Env Env
	// Shard is the engine's index within a sharded group.
	Shard int
	// Graph is the waits-for graph shared by every shard of a machine for
	// global deadlock detection; nil creates a private graph.
	Graph *WaitGraph
	// PageLimit caps the engine's page allocations (0 = unlimited). A
	// sharded group sets it to its stride so a growing shard cannot
	// silently spill page addresses into its neighbor's modeled window.
	PageLimit PageID
	// PageStride is the page-ID distance between consecutive shards'
	// allocation bases (0 = ShardPageStride). Wide sharded groups shrink it
	// so every shard's window still fits below the shared log buffers.
	PageStride PageID
}

// NewEngine creates an empty database.
func NewEngine(cfg Config) *Engine {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 4096
	}
	env := cfg.Env
	if env == nil {
		env = NopEnv{}
	}
	graph := cfg.Graph
	if graph == nil {
		graph = NewWaitGraph()
	}
	stride := cfg.PageStride
	if stride == 0 {
		stride = ShardPageStride
	}
	disk := NewDisk()
	return &Engine{
		Disk:      disk,
		Pool:      NewBufferPool(disk, cfg.BufferPoolPages),
		WAL:       NewWAL(),
		Locks:     NewLockMgr(),
		Env:       env,
		Shard:     cfg.Shard,
		graph:     graph,
		tables:    make(map[string]*Table),
		btrees:    make(map[string]*BTree),
		pageBase:  PageID(cfg.Shard) * stride,
		nextPage:  PageID(cfg.Shard) * stride,
		pageLimit: cfg.PageLimit,
		nextTxn:   1,
	}
}

// noteCommit counts a committed transaction and reports it to the
// environment, which times the shard's commit arrivals.
func (e *Engine) noteCommit() {
	e.Committed++
	e.Env.Committed(e.Shard)
}

// AllocPage reserves a fresh page ID.
func (e *Engine) AllocPage() PageID {
	if e.pageLimit > 0 && e.nextPage >= e.pageBase+e.pageLimit {
		panic(fmt.Sprintf("db: shard %d exhausted its %d-page address window (database grew past the per-shard region; use fewer shards or a smaller scale)",
			e.Shard, e.pageLimit))
	}
	id := e.nextPage
	e.nextPage++
	return id
}

// Checkpoint writes every dirty page back to disk, forces the log and drops
// the records it covered: the disk holds their effects now, so recovery
// starts from it and needs only later records. LSNs and the log-buffer
// offset count on from where they were. Take it at quiescence, with no
// transaction in flight (Recover redoes; it never undoes). The workload
// loaders end with one, so a measured run starts from a clean pool and an
// empty log.
func (e *Engine) Checkpoint() {
	e.Pool.FlushAll()
	e.WAL.MarkFlushed(e.WAL.CurrentLSN())
	e.WAL.chunks = nil
}

// Table is a heap table: pages filled append-only, with in-place updates.
type Table struct {
	Name  string
	Pages []PageID
	eng   *Engine

	// fields is the physical record layout (nil until EnsureFields or a
	// field hint installs one); byName indexes it, each entry with the
	// field's accesses through FetchFields/UpdateFields.
	fields []FieldDef
	byName map[string]*tallied
}

// tallied is one field of a table's layout and its access tally.
type tallied struct {
	FieldDef
	FieldAccess
}

// CreateTable registers an empty heap table. A field hint installed for the
// name (SetFieldHints) becomes the table's physical record layout, winning
// over the loader's interleaved default. A name already in the catalog is a
// loader bug and panics: replacing the entry would orphan the first table's
// pages.
func (e *Engine) CreateTable(name string) *Table {
	if _, dup := e.tables[name]; dup {
		panic(fmt.Sprintf("db: shard %d: table %q created twice", e.Shard, name))
	}
	t := &Table{Name: name, eng: e}
	if defs, ok := e.fieldHints[name]; ok {
		t.setFields(defs)
	}
	e.tables[name] = t
	return t
}

// Table returns a named heap table (nil if none was created).
func (e *Engine) Table(name string) *Table { return e.tables[name] }

// BTree returns a named B+tree index (nil if none was created).
func (e *Engine) BTree(name string) *BTree { return e.btrees[name] }

// Session is one server process's handle on the engine. PB receives the
// instrumentation events that drive the modeled instruction stream.
type Session struct {
	Eng *Engine
	PB  probe.Probe
	// PID identifies the server process (for diagnostics).
	PID int

	txn  *Txn   // &tx inside a transaction, nil outside one
	tx   Txn    // reused by every transaction, buffers and all
	row  []byte // Fetch's result, overwritten by the next Fetch
	crit int
}

// NewSession creates a session; pb may be probe.Nop{}.
func (e *Engine) NewSession(pid int, pb probe.Probe) *Session {
	if pb == nil {
		pb = probe.Nop{}
	}
	return &Session{Eng: e, PB: pb, PID: pid}
}

// BeginCritical brackets (with EndCritical) a short physical-structure
// operation — a B-tree descent or structure modification — during which the
// process must not lose the CPU, the stand-in for index latching (whose
// instruction cost the code models charge as library code). The machine
// defers preemption and performs page reads synchronously while a session
// is critical, so concurrent processes never observe a half-modified tree.
func (s *Session) BeginCritical() { s.crit++ }

// EndCritical leaves the innermost critical section.
func (s *Session) EndCritical() { s.crit-- }

// InCritical reports whether the session is inside a critical section.
func (s *Session) InCritical() bool { return s.crit > 0 }

// BufGet pins a page through the instrumented buffer-manager path: the
// hit/miss outcome is reported, and a miss reads the page through the
// environment (Env.Pread).
func (s *Session) BufGet(id PageID) *Page {
	s.PB.Enter("buf_get")
	defer s.PB.Leave("buf_get")
	pg, hit, err := s.Eng.Pool.get(id)
	if err != nil {
		panic(fmt.Sprintf("db: bufget %d: %v", id, err))
	}
	s.PB.Branch("buf_hit", hit)
	if hit {
		s.PB.Data(PageAddr(id), 32, false)
	} else {
		s.Eng.Env.Pread()
		s.PB.Data(PageAddr(id), 256, true)
	}
	return pg
}

// bufGetQuiet pins a page without instrumentation (load/recovery paths and
// B+tree structure modification, which the models charge as library code).
func (s *Session) bufGetQuiet(id PageID) *Page {
	pg, _, err := s.Eng.Pool.get(id)
	if err != nil {
		panic(fmt.Sprintf("db: bufget %d: %v", id, err))
	}
	return pg
}

// Unpin releases a page pin.
func (s *Session) Unpin(pg *Page) { s.Eng.Pool.Unpin(pg) }

// LockX acquires an exclusive row lock, parking the process on conflict
// until the holder releases. If waiting would close a waits-for cycle the
// session becomes the deadlock victim: it panics with ErrDeadlock (the
// modeled engine's longjmp) for the machine to abort and retry.
func (s *Session) LockX(key uint64) {
	s.lock(key, LockX)
}

// LockS acquires a shared row lock.
func (s *Session) LockS(key uint64) {
	s.lock(key, LockS)
}

func (s *Session) lock(key uint64, mode LockMode) {
	s.PB.Enter("lock_acquire")
	defer s.PB.Leave("lock_acquire")
	if s.txn == nil {
		panic("db: lock outside transaction")
	}
	ref := LockRef{Shard: s.Eng.Shard, Key: key}
	g := s.Eng.graph
	lm := s.Eng.Locks
	for {
		// A refused try pins the key's state (see lockState) until unpin.
		st, ok, isNew := lm.try(s.txn.ID, key, mode)
		s.PB.Data(s.Eng.lockTableAddr(key), 64, true)
		s.PB.Branch("lock_conflict", !ok)
		if ok {
			if isNew {
				s.txn.held = append(s.txn.held, key)
				g.hold(ref, s.PID)
			}
			return
		}
		lm.Conflicts++
		if g.cycles(s.PID, ref) {
			lm.unpin(key, st)
			s.Eng.Deadlocks++
			s.PB.AbortUnwind()
			panic(ErrDeadlock)
		}
		g.setWait(s.PID, ref)
		s.Eng.Env.Wait(st.queue)
		g.clearWait(s.PID)
		lm.unpin(key, st)
	}
}

// ReleaseLocks drops every lock held by the current transaction (strict
// 2PL: called at commit/abort).
func (s *Session) ReleaseLocks() {
	s.PB.Enter("lock_release")
	defer s.PB.Leave("lock_release")
	t := s.txn
	for _, key := range t.held {
		s.PB.Branch("lockrel_iter", true)
		s.PB.Data(s.Eng.lockTableAddr(key), 64, true)
		q, err := s.Eng.Locks.release(t.ID, key)
		if err != nil {
			panic(err)
		}
		s.Eng.graph.unhold(LockRef{Shard: s.Eng.Shard, Key: key}, s.PID)
		if q != nil {
			s.Eng.Env.Wake(q)
		}
	}
	s.PB.Branch("lockrel_iter", false)
	t.held = t.held[:0]
}

// LogAppend writes a WAL record through the instrumented path.
func (s *Session) LogAppend(rec LogRec) uint64 {
	lsn, _ := s.logAppend(rec)
	return lsn
}

// logAppend is LogAppend; it also returns the log's copy of rec.Before.
func (s *Session) logAppend(rec LogRec) (lsn uint64, before []byte) {
	s.PB.Enter("log_append")
	defer s.PB.Leave("log_append")
	lsn, off, before := s.Eng.WAL.Append(rec)
	s.PB.Data(s.Eng.logBufAddr(off), walHeader+len(rec.Before)+len(rec.After), true)
	s.PB.Branch("logbuf_high", s.Eng.WAL.BufferedBytes() > logBufHighWater)
	return lsn, before
}

// logBufHighWater models log-buffer pressure (purely an observable branch;
// flushing happens at commit).
const logBufHighWater = 1 << 16

// logBufAddr places the shard's (1 MB circular) log buffer in the shared
// data segment; records pack contiguously, so commits from different CPUs
// share lines. Shards keep disjoint 1 MB regions.
func (e *Engine) logBufAddr(offset int64) uint64 {
	return DataBase + 0x4000_0000 + uint64(e.Shard)<<20 + uint64(offset)%(1<<20)
}

// lockTableAddr places the shard's lock table: every acquire and release
// writes the resource's bucket, the way SGA-resident lock structures behave.
// Shards keep disjoint 1 MB regions.
func (e *Engine) lockTableAddr(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return DataBase + 0x6000_0000 + uint64(e.Shard)<<20 + (h%16384)*64
}

// ScratchAddr returns per-process private working storage (sort areas,
// cursor state); private data pressures the D-cache without producing
// sharing traffic.
func (s *Session) ScratchAddr(off uint64) uint64 {
	return DataBase + 0x7000_0000 + uint64(s.PID)<<20 + off%(1<<18)
}
