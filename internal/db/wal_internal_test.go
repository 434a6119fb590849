package db

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestLogChunksKeepOrder: a log appended across many chunk boundaries, in
// records of varied sizes, yields LSNs 1..n in order and its length is n;
// only the last chunk accepts appends, so a chunk's bytes never change once
// a later chunk exists, and no chunk outgrows walMaxChunk.
func TestLogChunksKeepOrder(t *testing.T) {
	w := NewWAL()
	const n = 3*walMaxChunk/walHeader + 5
	var frozen [][]byte // each closed chunk as it was when the next opened
	for i := 1; i <= n; i++ {
		before := len(w.chunks)
		if lsn, _, _ := w.Append(LogRec{Txn: uint64(i), Kind: LogUpdate, Before: make([]byte, i%50), After: make([]byte, i%7)}); lsn != uint64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
		if len(w.chunks) > before && before > 0 {
			frozen = append(frozen, slices.Clone(w.chunks[before-1]))
		}
	}
	if len(w.chunks) < 4 {
		t.Fatalf("%d records fill %d chunks; the test needs at least 3 boundaries", n, len(w.chunks))
	}
	for i, c := range w.chunks[:len(w.chunks)-1] {
		if !bytes.Equal(c, frozen[i]) {
			t.Fatalf("chunk %d of %d changed after chunk %d opened: only the last may accept appends", i, len(w.chunks), i+1)
		}
	}
	for i, c := range w.chunks {
		if cap(c) > walMaxChunk {
			t.Fatalf("chunk %d holds %d bytes, past the %d-byte cap", i, cap(c), walMaxChunk)
		}
	}
	want := uint64(1)
	for rec := range w.All() {
		if rec.LSN != want || rec.Txn != want || len(rec.Before) != int(want%50) || len(rec.After) != int(want%7) {
			t.Fatalf("record %d: LSN %d txn %d, images of %d and %d bytes", want, rec.LSN, rec.Txn, len(rec.Before), len(rec.After))
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
	const rows, txns, tail = 50, walMaxChunk / 16, 3
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
// template's records, its length and the spare bytes of its last chunk as
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
	if cap(last)-len(last) < walHeader {
		t.Fatalf("the template's last chunk has room for no record (%d of %d bytes)", len(last), cap(last))
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
	for i, b := range last[len(last):cap(last)] {
		if b != 0 {
			t.Fatalf("a copy wrote byte %d of the template's last chunk", len(last)+i)
		}
	}
}

// TestLogBytesAreTheModeledBytes: the log stores exactly the bytes it
// charges. Across a checkpoint and a CopyFrom, the bytes the chunks hold
// equal the growth of TotalAppended since the checkpoint, each record's
// share is its walHeader plus its images, and an append's buffer offset
// points at its own header in the stored bytes.
func TestLogBytesAreTheModeledBytes(t *testing.T) {
	check := func(what string, w *WAL, base int64) {
		t.Helper()
		if got, want := int64(w.storedBytes()), w.TotalAppended-base; got != want {
			t.Fatalf("%s: the log stores %d bytes, TotalAppended grew %d", what, got, want)
		}
		sum := 0
		for rec := range w.All() {
			sum += walHeader + len(rec.Before) + len(rec.After)
		}
		if sum != w.storedBytes() {
			t.Fatalf("%s: the records' modeled sizes sum to %d, the log stores %d", what, sum, w.storedBytes())
		}
	}
	cfg := Config{BufferPoolPages: 64}
	eng := NewEngine(cfg)
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	rids := make([]RID, 30)
	for i := range rids {
		rids[i] = tb.Insert(s, make([]byte, 20+i))
	}
	check("after the load", eng.WAL, 0)
	eng.Checkpoint()
	base := eng.WAL.TotalAppended
	check("after the checkpoint", eng.WAL, base)
	runUpdates(s, tb, rids, 200)
	s.Begin()
	tb.Update(s, rids[3], make([]byte, 23))
	tb.Insert(s, []byte("gone"))
	s.Abort()
	check("after the updates", eng.WAL, base)

	c := NewEngine(cfg)
	if err := c.CopyFrom(eng); err != nil {
		t.Fatal(err)
	}
	check("in the copy", c.WAL, base)
	runUpdates(c.NewSession(1, nil), c.Table("t"), rids, 100)
	check("after the copy's updates", c.WAL, base)
	check("in the template", eng.WAL, base)

	lsn, off, before := c.WAL.Append(LogRec{Txn: 9, Kind: LogUpdate, Page: 3, Slot: 4, Before: []byte("was"), After: []byte("is")})
	stored := slices.Concat(c.WAL.chunks...)
	if rec, _ := decode(stored[off-base:]); rec.LSN != lsn || string(rec.Before) != "was" || string(rec.After) != "is" {
		t.Fatalf("offset %d holds record %+v, want LSN %d was → is", off, rec, lsn)
	}
	if string(before) != "was" || cap(before) != len(before) {
		t.Fatalf("Append returned before-image %q of capacity %d, want \"was\" capped", before, cap(before))
	}
}

// TestAbortReadsBeforeImagesFromTheLog: a transaction whose updates span a
// chunk boundary aborts back to the rows it found, and the before-images
// Abort writes back are the log's bytes: a log byte changed under an open
// transaction is the byte the abort restores.
func TestAbortReadsBeforeImagesFromTheLog(t *testing.T) {
	eng := NewEngine(Config{BufferPoolPages: 64})
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	rids := make([]RID, 40)
	for i := range rids {
		row := make([]byte, 100)
		row[0] = byte(i)
		rids[i] = tb.Insert(s, row)
	}
	eng.Checkpoint()
	runUpdates(s, tb, rids, 1) // the log's first chunk holds a record already

	s.Begin()
	chunks := len(eng.WAL.chunks)
	for _, rid := range rids {
		row := tb.Fetch(s, rid)
		row[1] = 0xee
		tb.Update(s, rid, row)
	}
	inserted := tb.Insert(s, []byte("gone"))
	if len(eng.WAL.chunks) <= chunks {
		t.Fatalf("the transaction's updates stayed in %d chunks; the test needs a boundary", chunks)
	}
	var first LogRec // the transaction's first update
	for rec := range eng.WAL.All() {
		if rec.Txn == s.Txn().ID {
			first = rec
			break
		}
	}
	first.Before[2] = 0x5a // Before is a view of the log's bytes
	s.Abort()

	for i, rid := range rids {
		want := make([]byte, 100)
		want[0] = byte(i)
		if i == 0 {
			want[0]++ // runUpdates committed it
			want[2] = 0x5a
		}
		if got := tb.Fetch(s, rid); !bytes.Equal(got, want) {
			t.Fatalf("row %d after the abort = % x, want % x", i, got[:4], want[:4])
		}
	}
	pg := s.bufGetQuiet(inserted.Page)
	defer s.Unpin(pg)
	if _, err := pg.Record(int(inserted.Slot)); err == nil {
		t.Error("the aborted insert survived")
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

// TestUpdateTxnAllocs: a warmed single-row update transaction allocates
// nothing. The log copies its images into chunks of up to walMaxChunk bytes,
// so a chunk is shared by hundreds of transactions, and the undo list holds
// the log's before-image. Images cloned again per update, a transaction,
// undo list or lock list allocated per transaction again, or a log that
// regrows by copying fails here.
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
	if n := testing.AllocsPerRun(1000, txn); n != 0 {
		t.Errorf("%v allocations per warmed update transaction, want 0", n)
	}
}

// TestInsertTxnAllocs: a warmed single-row insert transaction allocates
// nothing but its share of a log chunk and of the heap pages the table grows
// into, which round to 0 per transaction. An after-image cloned per insert
// fails here.
func TestInsertTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := NewEngine(Config{BufferPoolPages: 64})
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	row := make([]byte, 40)
	txn := func() {
		s.Begin()
		s.LockX(7)
		row[0]++
		tb.Insert(s, row)
		s.Commit()
	}
	for range 100 {
		txn()
	}
	if n := testing.AllocsPerRun(1000, txn); n != 0 {
		t.Errorf("%v allocations per warmed insert transaction, want 0", n)
	}
}
