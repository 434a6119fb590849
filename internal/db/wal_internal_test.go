package db

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestLogChunksKeepOrder: a log appended across many chunk boundaries
// yields LSNs 1..n in order, and its length is n.
func TestLogChunksKeepOrder(t *testing.T) {
	w := NewWAL()
	const n = 3*walMaxChunk + 5
	for i := 1; i <= n; i++ {
		if lsn, _ := w.Append(LogRec{Txn: uint64(i), Kind: LogCommit}); lsn != uint64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if len(w.chunks) < 4 {
		t.Fatalf("%d records fill %d chunks; the test needs at least 3 boundaries", n, len(w.chunks))
	}
	for i, c := range w.chunks[:len(w.chunks)-1] {
		if len(c) != cap(c) {
			t.Fatalf("chunk %d of %d holds %d of %d records: only the last may have room", i, len(w.chunks), len(c), cap(c))
		}
	}
	want := uint64(1)
	for rec := range w.All() {
		if rec.LSN != want || rec.Txn != want {
			t.Fatalf("record %d: LSN %d txn %d", want, rec.LSN, rec.Txn)
		}
		want++
	}
	if want != n+1 || w.Len() != n {
		t.Fatalf("All yielded %d records, Len says %d; want %d", want-1, w.Len(), n)
	}
	for range w.All() {
		break // an early stop must not panic
	}
}

// runUpdates commits one update per transaction on the table's rows,
// round-robin, the row's first byte counting the updates.
func runUpdates(s *Session, tb *Table, rids []RID, txns int) {
	for i := 0; i < txns; i++ {
		rid := rids[i%len(rids)]
		s.Begin()
		row := tb.Fetch(s, rid)
		row[0]++
		tb.Update(s, rid, row)
		s.Commit()
	}
}

// TestRecoverAcrossChunks: recovery from a log spanning several chunks
// rebuilds the pages that recovery from a one-chunk log of the same
// transactions' tail rebuilds.
func TestRecoverAcrossChunks(t *testing.T) {
	const rows, txns, tail = 50, 2 * walMaxChunk, 3
	crash := func(checkpointBeforeTail bool) (*Engine, []RID) {
		eng := NewEngine(Config{BufferPoolPages: 64})
		s := eng.NewSession(1, nil)
		tb := eng.CreateTable("t")
		rids := make([]RID, rows)
		for i := range rids {
			rids[i] = tb.Insert(s, make([]byte, 40))
		}
		eng.Checkpoint()
		runUpdates(s, tb, rids, txns-tail)
		if checkpointBeforeTail {
			eng.Checkpoint()
		}
		runUpdates(s, tb, rids[(txns-tail)%rows:], tail)
		if _, err := Recover(eng.Disk, eng.WAL); err != nil {
			t.Fatal(err)
		}
		return eng, rids
	}
	long, rids := crash(false)
	short, _ := crash(true)
	if n := long.WAL.Len(); len(long.WAL.chunks) < 4 || n != 2*txns {
		t.Fatalf("long log: %d records in %d chunks", n, len(long.WAL.chunks))
	}
	if len(short.WAL.chunks) != 1 {
		t.Fatalf("short log: %d chunks, want 1", len(short.WAL.chunks))
	}
	for _, id := range long.Table("t").Pages {
		if !bytes.Equal(long.Disk.Read(id), short.Disk.Read(id)) {
			t.Fatalf("page %d differs between recovery from %d chunks and from one", id, len(long.WAL.chunks))
		}
	}
	pg := &Page{ID: rids[0].Page, Data: long.Disk.Read(rids[0].Page)}
	if rec, err := pg.Record(int(rids[0].Slot)); err != nil || int(rec[0]) != ((txns+rows-1)/rows)%256 {
		t.Fatalf("recovered row 0 = %v (%v), want its first byte %d", rec, err, ((txns+rows-1)/rows)%256)
	}
}

// TestCopyFromSharesLogChunks: copies of a template whose log ends mid-chunk
// share its chunks, and transactions on four copies at once leave the
// template's records, its length and the spare room of its last chunk as
// they were. Two copies appending into the shared spare room would race.
func TestCopyFromSharesLogChunks(t *testing.T) {
	cfg := Config{BufferPoolPages: 64}
	tmpl := NewEngine(cfg)
	s := tmpl.NewSession(1, nil)
	tb := tmpl.CreateTable("t")
	rids := make([]RID, 10)
	for i := range rids {
		rids[i] = tb.Insert(s, make([]byte, 40))
	}
	tmpl.Checkpoint()
	runUpdates(s, tb, rids, 5)
	last := tmpl.WAL.chunks[len(tmpl.WAL.chunks)-1]
	if len(last) == cap(last) {
		t.Fatalf("the template's log ends on a chunk boundary (%d records)", len(last))
	}
	recs, n := slices.Collect(tmpl.WAL.All()), tmpl.WAL.Len()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewEngine(cfg)
			if err := c.CopyFrom(tmpl); err != nil {
				errs[i] = err
				return
			}
			cs := c.NewSession(1, nil)
			runUpdates(cs, c.Table("t"), rids[i:], 20+i)
			got := slices.Collect(c.WAL.All())
			if len(got) != n+2*(20+i) || !reflect.DeepEqual(got[:n], recs) {
				errs[i] = fmt.Errorf("copy %d: %d records, template prefix kept %v", i, len(got), reflect.DeepEqual(got[:n], recs))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tmpl.WAL.Len() != n || !reflect.DeepEqual(slices.Collect(tmpl.WAL.All()), recs) {
		t.Fatalf("the template's log changed: %d records, want %d", tmpl.WAL.Len(), n)
	}
	for i, rec := range last[len(last):cap(last)] {
		if !reflect.DeepEqual(rec, LogRec{}) {
			t.Fatalf("a copy wrote slot %d of the template's last chunk: %+v", len(last)+i, rec)
		}
	}
}

// TestSessionReusesTxn: a session's second transaction reuses the first's
// Txn, and aborting it restores exactly its own before-images: the first
// transaction's committed updates stay.
func TestSessionReusesTxn(t *testing.T) {
	eng := NewEngine(Config{BufferPoolPages: 64})
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	a, b, c := tb.Insert(s, []byte("a0")), tb.Insert(s, []byte("b0")), tb.Insert(s, []byte("c0"))
	t1 := s.Begin()
	s.LockX(1)
	tb.Update(s, a, []byte("a1"))
	tb.Update(s, b, []byte("b1"))
	s.Commit()
	t2 := s.Begin()
	if t2 != t1 || t2.ID != t1.ID || len(t2.undo) != 0 || len(t2.held) != 0 {
		t.Fatalf("second Begin: same Txn %v, ID %d, %d undo records, %d locks", t2 == t1, t2.ID, len(t2.undo), len(t2.held))
	}
	s.LockX(2)
	tb.Update(s, c, []byte("c2"))
	tb.Update(s, b, []byte("b2"))
	d := tb.Insert(s, []byte("d2"))
	s.Abort()
	for rid, want := range map[RID]string{a: "a1", b: "b1", c: "c0"} {
		if got := string(tb.Fetch(s, rid)); got != want {
			t.Errorf("row %v = %q after the abort, want %q", rid, got, want)
		}
	}
	pg := s.bufGetQuiet(d.Page)
	defer s.Unpin(pg)
	if _, err := pg.Record(int(d.Slot)); err == nil {
		t.Error("the aborted insert survived")
	}
	if eng.Locks.HeldBy(t1.ID, 1, LockX) || eng.Locks.HeldBy(t2.ID, 2, LockX) {
		t.Error("a lock outlived its transaction")
	}
}

// TestUpdateTxnAllocs bounds what a warmed single-row update transaction
// allocates: the log's before and after images, and a share of a log chunk.
// A transaction, undo list or lock list allocated per transaction again, or
// a log that regrows by copying, fails here.
func TestUpdateTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := NewEngine(Config{BufferPoolPages: 64})
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	rid := tb.Insert(s, make([]byte, 40))
	row := make([]byte, 40)
	txn := func() {
		s.Begin()
		s.LockX(7)
		row[0]++
		tb.Update(s, rid, row)
		s.Commit()
	}
	for range 100 {
		txn() // warm: the session's buffers and the lock's state exist
	}
	if n := testing.AllocsPerRun(1000, txn); n > 2 {
		t.Errorf("%v allocations per warmed update transaction, want at most 2 (the log images)", n)
	}
}
