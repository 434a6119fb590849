package db

import "fmt"

// Txn is an in-flight transaction.
type Txn struct {
	ID   uint64
	held []uint64    // lock keys, release order = acquisition order
	undo []undoEntry // the transaction's writes, undone by Abort in reverse
}

// undoEntry is one write Abort undoes: an insert (deleted) or an update
// (restored from before, the log's copy of the before-image).
type undoEntry struct {
	kind   LogRecKind
	slot   uint16
	page   PageID
	before []byte
}

// Begin starts a transaction on the session. The session reuses one Txn,
// and its lock and undo buffers, for all its transactions: the returned
// value is valid until the session's next Begin.
func (s *Session) Begin() *Txn {
	s.PB.Enter("txn_begin")
	defer s.PB.Leave("txn_begin")
	if s.txn != nil {
		panic("db: nested transaction")
	}
	t := &s.tx
	t.ID = s.Eng.nextTxn
	t.held, t.undo = t.held[:0], t.undo[:0]
	s.Eng.nextTxn++
	s.txn = t
	return t
}

// Txn returns the session's current transaction (nil outside one).
func (s *Session) Txn() *Txn { return s.txn }

// Commit forces the log (group commit) and releases locks.
func (s *Session) Commit() {
	s.PB.Enter("txn_commit")
	defer s.PB.Leave("txn_commit")
	t := s.txn
	if t == nil {
		panic("db: commit outside transaction")
	}
	lsn := s.LogAppend(LogRec{Txn: t.ID, Kind: LogCommit})
	s.logForce(lsn)
	s.ReleaseLocks()
	s.txn = nil
	s.Eng.noteCommit()
}

// Abort undoes the transaction's updates from their before-images, which it
// reads from the log, logs the abort, and releases locks.
func (s *Session) Abort() {
	s.PB.Enter("txn_abort")
	defer s.PB.Leave("txn_abort")
	t := s.txn
	if t == nil {
		panic("db: abort outside transaction")
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		s.PB.Branch("undo_iter", true)
		u := t.undo[i]
		pg := s.bufGetQuiet(u.page)
		switch u.kind {
		case LogUpdate:
			if err := pg.Update(int(u.slot), u.before); err != nil {
				panic(err)
			}
		case LogInsert:
			if err := pg.Delete(int(u.slot)); err != nil {
				panic(err)
			}
		}
		s.Unpin(pg)
	}
	s.PB.Branch("undo_iter", false)
	s.LogAppend(LogRec{Txn: t.ID, Kind: LogAbort})
	s.ReleaseLocks()
	s.txn = nil
	s.Eng.Aborted++
}

// Prepare force-logs a prepare record for a distributed-transaction
// participant: its updates and locks become durable pending the
// coordinator's commit decision. The transaction stays open (locks held)
// until CommitPrepared or Abort.
func (s *Session) Prepare() {
	s.PB.Enter("txn_prepare")
	defer s.PB.Leave("txn_prepare")
	t := s.txn
	if t == nil {
		panic("db: prepare outside transaction")
	}
	lsn := s.LogAppend(LogRec{Txn: t.ID, Kind: LogPrepare})
	s.logForce(lsn)
}

// CommitPrepared applies the coordinator's commit decision on a prepared
// participant: it logs the commit record and releases locks without forcing
// the log — the forced prepare record plus the coordinator's forced commit
// already make the outcome durable, so the participant's commit record can
// ride the shard's next group flush.
func (s *Session) CommitPrepared() {
	s.PB.Enter("txn_resolve")
	defer s.PB.Leave("txn_resolve")
	t := s.txn
	if t == nil {
		panic("db: resolve outside transaction")
	}
	s.LogAppend(LogRec{Txn: t.ID, Kind: LogCommit})
	s.ReleaseLocks()
	s.txn = nil
	s.Eng.noteCommit()
}

// logForce implements group commit: the first committer whose LSN is not yet
// stable becomes the leader and performs the log write (Env.LogWrite, a
// blocking kernel crossing); committers arriving while a flush is in flight
// park and are released together when the leader finishes. Before picking
// its target the leader asks the environment to hold the flush
// (Env.HoldFlush): with a batching window the leader, standing in for the
// shard's log daemon, sleeps it out while later commits append behind it and
// join the batch instead of queuing behind it; with per-commit flushing it
// writes only its own commit's prefix, so every committer pays its own
// physical write (the pre-group-commit baseline the benches compare against).
func (s *Session) logForce(lsn uint64) {
	s.PB.Enter("log_flush")
	defer s.PB.Leave("log_flush")
	w := s.Eng.WAL
	waited := false // parked at least once
	led := false    // performed a physical write itself
	for {
		done := w.FlushedLSN >= lsn
		s.PB.Branch("log_retry", !done)
		if done {
			break
		}
		leader := !w.Flushing
		s.PB.Branch("log_leader", leader)
		if leader {
			led = true
			w.Flushing = true
			perCommit := s.Eng.Env.HoldFlush(s.Eng.Shard)
			target := w.CurrentLSN()
			if perCommit {
				target = lsn
			}
			s.Eng.Env.LogWrite()
			w.MarkFlushed(target)
			w.Flushing = false
			s.Eng.Env.Wake(w.Waiters)
		} else {
			waited = true
			s.Eng.Env.Wait(w.Waiters)
		}
	}
	// A force that parked and was released by someone else's physical
	// write piggybacked on that flush.
	if waited && !led {
		w.GroupedCommits++
	}
}

// ---- Heap table operations ----

// Insert appends a record to the heap table, allocating a fresh page when
// the tail page is full. The free-space check, page fetch and slot write
// run under a latch (critical section): without it, a page read blocking
// mid-insert would let a concurrent process fill the checked tail page.
func (tb *Table) Insert(s *Session, rec []byte) RID {
	s.PB.Enter("heap_insert")
	defer s.PB.Leave("heap_insert")
	s.BeginCritical()
	needNew := len(tb.Pages) == 0
	if !needNew {
		tail := s.bufGetQuiet(tb.Pages[len(tb.Pages)-1])
		needNew = tail.FreeBytes() < len(rec)+2
		s.Unpin(tail)
	}
	s.PB.Branch("heap_newpage", needNew)
	if needNew {
		tb.Pages = append(tb.Pages, tb.eng.AllocPage())
	}
	pgID := tb.Pages[len(tb.Pages)-1]
	pg := s.BufGet(pgID)
	defer s.Unpin(pg)
	slot, err := pg.Insert(rec)
	s.EndCritical()
	if err != nil {
		panic(fmt.Sprintf("db: heap insert: %v", err))
	}
	rid := RID{Page: pgID, Slot: uint16(slot)}
	s.LogAppend(LogRec{Txn: s.txnID(), Kind: LogInsert, Page: pgID, Slot: uint16(slot), After: rec})
	if s.txn != nil {
		s.txn.undo = append(s.txn.undo, undoEntry{kind: LogInsert, slot: uint16(slot), page: pgID})
	}
	s.PB.Data(PageAddr(pgID), 16, true) // page header: slot count, LSN
	s.PB.Data(PageAddr(pgID)+uint64(pg.DataOffset(slot)), len(rec)+2, true)
	return rid
}

// Fetch copies the record at rid into the session's row buffer and returns
// the buffer: the slice is valid until the session's next Fetch or
// FetchFields, which overwrites it. A caller may modify it and pass it to
// Update (the log copies its own images); one that needs a row past the next
// fetch copies it or reads what it needs first.
func (tb *Table) Fetch(s *Session, rid RID) []byte { return tb.fetch(s, rid, false, nil) }

// recordAddr returns the honest simulated address of a record's length
// prefix (its first stored byte) for the D-cache models.
func recordAddr(pg *Page, rid RID) uint64 {
	return PageAddr(rid.Page) + uint64(pg.DataOffset(int(rid.Slot)))
}

// FetchFields is Fetch for schema-aware callers: it copies the whole record
// into the same row buffer, with the same lifetime, but models only the
// named fields as read — one data reference for the record's length prefix
// plus one per field at its resolved offset — and tallies each into the
// table's field-access profile. The instruction
// stream is identical to Fetch (same probe enter/leave shape; data
// references cost no instructions), so interleaved and grouped layouts
// differ only in the addresses the D-cache models see.
func (tb *Table) FetchFields(s *Session, rid RID, names ...string) []byte {
	return tb.fetch(s, rid, true, names)
}

// fetch is the body of Fetch and FetchFields; perField selects
// FetchFields's data references.
func (tb *Table) fetch(s *Session, rid RID, perField bool, names []string) []byte {
	s.PB.Enter("heap_fetch")
	defer s.PB.Leave("heap_fetch")
	pg := s.BufGet(rid.Page)
	defer s.Unpin(pg)
	rec, err := pg.Record(int(rid.Slot))
	if err != nil {
		panic(fmt.Sprintf("db: heap fetch %v: %v", rid, err))
	}
	tb.touch(s, recordAddr(pg, rid), len(rec), perField, names, false)
	s.row = append(s.row[:0], rec...)
	return s.row
}

// Update rewrites the record at rid (same size), logging before/after
// images.
func (tb *Table) Update(s *Session, rid RID, rec []byte) { tb.update(s, rid, rec, false, nil) }

// UpdateFields is Update for schema-aware callers: the full record image is
// still logged and written (fixed-size in-place update), but the modeled
// dirty bytes are only the named fields — a header write plus one write per
// field at its resolved offset — since the unnamed bytes are unchanged.
// Each named field is tallied as written in the field-access profile.
func (tb *Table) UpdateFields(s *Session, rid RID, rec []byte, names ...string) {
	tb.update(s, rid, rec, true, names)
}

// update is the body of Update and UpdateFields; perField selects
// UpdateFields's data references.
func (tb *Table) update(s *Session, rid RID, rec []byte, perField bool, names []string) {
	s.PB.Enter("heap_update")
	defer s.PB.Leave("heap_update")
	pg := s.BufGet(rid.Page)
	defer s.Unpin(pg)
	old, err := pg.Record(int(rid.Slot))
	if err != nil {
		panic(fmt.Sprintf("db: heap update %v: %v", rid, err))
	}
	_, before := s.logAppend(LogRec{Txn: s.txnID(), Kind: LogUpdate, Page: rid.Page, Slot: rid.Slot,
		Before: old, After: rec})
	if s.txn != nil {
		s.txn.undo = append(s.txn.undo, undoEntry{kind: LogUpdate, slot: rid.Slot, page: rid.Page, before: before})
	}
	if err := pg.Update(int(rid.Slot), rec); err != nil {
		panic(err)
	}
	s.PB.Data(PageAddr(rid.Page), 16, true) // page header LSN
	tb.touch(s, recordAddr(pg, rid), len(rec), perField, names, true)
}

// touch models the data references of one access to the n-byte record whose
// length prefix is at base: the whole record with its prefix, or (perField)
// the prefix plus each named field, tallied as read or written.
func (tb *Table) touch(s *Session, base uint64, n int, perField bool, names []string, write bool) {
	if !perField {
		s.PB.Data(base, n+2, write)
		return
	}
	s.PB.Data(base, 2, write) // record header: length prefix
	for _, name := range names {
		f, ok := tb.byName[name]
		if !ok {
			panic(fmt.Sprintf("db: table %q has no field %q", tb.Name, name))
		}
		s.PB.Data(base+2+uint64(f.Off), f.Width, write)
		if write {
			f.Writes++
		} else {
			f.Reads++
		}
	}
}

func (s *Session) txnID() uint64 {
	if s.txn == nil {
		return 0
	}
	return s.txn.ID
}

// ---- Recovery ----

// Recover rebuilds the database from the disk checkpoint plus the stable
// log: redo-only (the engine never steals dirty pages of uncommitted
// transactions to disk mid-transaction; checkpoints happen at quiescence).
// It returns the set of committed transaction IDs.
func Recover(disk *Disk, wal *WAL) (map[uint64]bool, error) {
	committed := make(map[uint64]bool)
	for rec := range wal.All() {
		if rec.LSN > wal.FlushedLSN {
			break // tail never reached stable storage
		}
		if rec.Kind == LogCommit {
			committed[rec.Txn] = true
		}
	}
	// Redo committed changes in log order.
	pages := make(map[PageID]*Page)
	getPage := func(id PageID) *Page {
		if pg, ok := pages[id]; ok {
			return pg
		}
		pg := &Page{ID: id, Data: disk.Read(id)}
		pages[id] = pg
		return pg
	}
	for rec := range wal.All() {
		if rec.LSN > wal.FlushedLSN {
			break
		}
		if !committed[rec.Txn] {
			continue
		}
		switch rec.Kind {
		case LogInsert:
			pg := getPage(rec.Page)
			slot, err := pg.Insert(rec.After)
			if err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
			if uint16(slot) != rec.Slot {
				return nil, fmt.Errorf("recover: insert slot %d, log says %d", slot, rec.Slot)
			}
		case LogUpdate:
			pg := getPage(rec.Page)
			if err := pg.Update(int(rec.Slot), rec.After); err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
		}
	}
	for id, pg := range pages {
		disk.Write(id, pg.Data)
	}
	return committed, nil
}
