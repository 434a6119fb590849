package db_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"codelayout/internal/db"
	"codelayout/internal/probe"
)

func newEngine(t *testing.T) (*db.Engine, *db.Session) {
	t.Helper()
	eng := db.NewEngine(db.Config{BufferPoolPages: 512})
	return eng, eng.NewSession(1, nil)
}

func TestPageInsertFetchUpdate(t *testing.T) {
	p := db.NewPage(1)
	slot, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slot)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("rec=%q err=%v", rec, err)
	}
	if err := p.Update(slot, []byte("world")); err != nil {
		t.Fatal(err)
	}
	rec, _ = p.Record(slot)
	if string(rec) != "world" {
		t.Fatalf("after update: %q", rec)
	}
	if err := p.Update(slot, []byte("too long!")); err == nil {
		t.Fatal("size-changing update must fail")
	}
	if err := p.Delete(slot); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(slot); err == nil {
		t.Fatal("deleted slot should error")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := db.NewPage(1)
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	// 8KB page, 102 bytes per record + 2 slot bytes: ~78 records.
	if n < 70 || n > 82 {
		t.Fatalf("records per page = %d", n)
	}
}

func TestPageRecordsSurviveManyInserts(t *testing.T) {
	p := db.NewPage(1)
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%02d", i))
		if _, err := p.Insert(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	for i, w := range want {
		got, err := p.Record(i)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("slot %d: %q vs %q (%v)", i, got, w, err)
		}
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	eng := db.NewEngine(db.Config{BufferPoolPages: 2})
	s := eng.NewSession(1, nil)
	ids := []db.PageID{eng.AllocPage(), eng.AllocPage(), eng.AllocPage()}
	// Dirty page 0, then touch two more to force eviction.
	pg := s.BufGet(ids[0])
	pg.Data[100] = 0xAB
	pg.Dirty = true
	s.Unpin(pg)
	for _, id := range ids[1:] {
		pg := s.BufGet(id)
		s.Unpin(pg)
	}
	if eng.Pool.Resident() != 2 {
		t.Fatalf("resident = %d", eng.Pool.Resident())
	}
	// Re-read page 0: must come back from disk with the modification.
	pg = s.BufGet(ids[0])
	if pg.Data[100] != 0xAB {
		t.Fatal("writeback lost data")
	}
	s.Unpin(pg)
	if eng.Pool.Misses < 4 {
		t.Fatalf("misses = %d", eng.Pool.Misses)
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	eng := db.NewEngine(db.Config{BufferPoolPages: 2})
	s := eng.NewSession(1, nil)
	a, b, c := eng.AllocPage(), eng.AllocPage(), eng.AllocPage()
	pa := s.BufGet(a) // keep pinned
	pb := s.BufGet(b)
	s.Unpin(pb)
	pc := s.BufGet(c) // must evict b, not pinned a
	s.Unpin(pc)
	pa2 := s.BufGet(a)
	if eng.Pool.Misses != 3 {
		t.Fatalf("misses = %d (pinned page was evicted?)", eng.Pool.Misses)
	}
	s.Unpin(pa2)
	s.Unpin(pa)
}

func TestBTreeInsertSearch(t *testing.T) {
	eng, s := newEngine(t)
	bt := eng.CreateBTree("t")
	for i := uint64(0); i < 2000; i++ {
		if err := bt.Insert(s, i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Validate(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		v, ok := bt.Search(s, i*3)
		if !ok || v != i {
			t.Fatalf("key %d: v=%d ok=%v", i*3, v, ok)
		}
		if _, ok := bt.Search(s, i*3+1); ok {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
	if bt.Height() < 2 {
		t.Fatalf("height = %d, expected splits", bt.Height())
	}
	if got := bt.Count(s); got != 2000 {
		t.Fatalf("count = %d", got)
	}
}

func TestBTreeOverwrite(t *testing.T) {
	eng, s := newEngine(t)
	bt := eng.CreateBTree("t")
	if err := bt.Insert(s, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert(s, 7, 2); err != nil {
		t.Fatal(err)
	}
	v, ok := bt.Search(s, 7)
	if !ok || v != 2 {
		t.Fatalf("v=%d ok=%v", v, ok)
	}
	if got := bt.Count(s); got != 1 {
		t.Fatalf("count = %d", got)
	}
}

// Property: after inserting any random key set, every key is found with its
// latest value, no other key is found, and the tree validates.
func TestBTreeRandomProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := db.NewEngine(db.Config{BufferPoolPages: 2048})
		s := eng.NewSession(1, nil)
		bt := eng.CreateBTree("t")
		want := make(map[uint64]uint64)
		n := 200 + r.Intn(3000)
		for i := 0; i < n; i++ {
			k := uint64(r.Intn(10000))
			v := uint64(r.Intn(1 << 30))
			if err := bt.Insert(s, k, v); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			want[k] = v
		}
		if err := bt.Validate(s); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if bt.Count(s) != len(want) {
			t.Logf("seed %d: count %d != %d", seed, bt.Count(s), len(want))
			return false
		}
		for k, v := range want {
			got, ok := bt.Search(s, k)
			if !ok || got != v {
				t.Logf("seed %d: key %d: got %d,%v want %d", seed, k, got, ok, v)
				return false
			}
		}
		for i := 0; i < 100; i++ {
			k := uint64(10000 + r.Intn(10000))
			if _, ok := bt.Search(s, k); ok {
				t.Logf("seed %d: phantom %d", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestLockManagerModes(t *testing.T) {
	lm := db.NewLockMgr()
	_ = lm
	eng, _ := newEngine(t)
	s1 := eng.NewSession(1, nil)
	t1 := s1.Begin()
	key := db.LockKey(1, 42)
	s1.LockX(key)
	if !eng.Locks.HeldBy(t1.ID, key, db.LockX) {
		t.Fatal("lock not held")
	}
	// Re-acquire by the same transaction must not deadlock or double-count.
	s1.LockX(key)
	s1.Commit()
	if eng.Locks.HeldBy(t1.ID, key, db.LockS) {
		t.Fatal("lock survived commit")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	eng, _ := newEngine(t)
	s1 := eng.NewSession(1, nil)
	s2 := eng.NewSession(2, nil)
	key := db.LockKey(1, 7)
	t1 := s1.Begin()
	s1.LockS(key)
	t2 := s2.Begin()
	s2.LockS(key) // must not block
	if !eng.Locks.HeldBy(t1.ID, key, db.LockS) || !eng.Locks.HeldBy(t2.ID, key, db.LockS) {
		t.Fatal("shared locks should coexist")
	}
	s1.Commit()
	s2.Commit()
}

func TestTxnCommitPersistsAndAbortsUndo(t *testing.T) {
	eng, s := newEngine(t)
	tb := eng.CreateTable("t")
	rid := tb.Insert(s, []byte("aaaa")) // outside txn (load)
	s.Begin()
	tb.Update(s, rid, []byte("bbbb"))
	s.Commit()
	if string(tb.Fetch(s, rid)) != "bbbb" {
		t.Fatal("committed update lost")
	}
	s.Begin()
	tb.Update(s, rid, []byte("cccc"))
	rid2 := tb.Insert(s, []byte("dddd"))
	s.Abort()
	if string(tb.Fetch(s, rid)) != "bbbb" {
		t.Fatal("abort did not undo update")
	}
	pg := s.BufGet(rid2.Page)
	if _, err := pg.Record(int(rid2.Slot)); err == nil {
		t.Fatal("abort did not undo insert")
	}
	s.Unpin(pg)
	if eng.Committed != 1 || eng.Aborted != 1 {
		t.Fatalf("committed=%d aborted=%d", eng.Committed, eng.Aborted)
	}
}

// dataProbe records the data references a session reports.
type dataProbe struct {
	probe.Nop
	refs []dataRef
}

type dataRef struct {
	addr  uint64
	bytes int
	write bool
}

func (p *dataProbe) Data(addr uint64, bytes int, write bool) {
	p.refs = append(p.refs, dataRef{addr, bytes, write})
}

// TestHeapAccessorsModelTheirDataRefs: Fetch and Update model the whole
// record; FetchFields and UpdateFields model its length prefix plus each
// named field, in the order named, and tally them. With no names they model
// the prefix alone.
func TestHeapAccessorsModelTheirDataRefs(t *testing.T) {
	eng := db.NewEngine(db.Config{BufferPoolPages: 64})
	pb := &dataProbe{}
	s := eng.NewSession(1, pb)
	tb := eng.CreateTable("t")
	if err := tb.EnsureFields([]db.FieldDef{{Name: "a", Off: 0, Width: 4}, {Name: "b", Off: 4, Width: 8}}); err != nil {
		t.Fatal(err)
	}
	rid := tb.Insert(s, make([]byte, 12))
	// last returns the final n references fn reported.
	last := func(n int, fn func()) []dataRef {
		pb.refs = pb.refs[:0]
		fn()
		if len(pb.refs) < n {
			t.Fatalf("%d data references, want at least %d", len(pb.refs), n)
		}
		return append([]dataRef(nil), pb.refs[len(pb.refs)-n:]...)
	}
	base := last(1, func() { tb.Fetch(s, rid) })[0].addr
	cases := []struct {
		name string
		fn   func()
		want []dataRef
	}{
		{"Fetch", func() { tb.Fetch(s, rid) }, []dataRef{{base, 14, false}}},
		{"FetchFields", func() { tb.FetchFields(s, rid, "b", "a") },
			[]dataRef{{base, 2, false}, {base + 6, 8, false}, {base + 2, 4, false}}},
		{"FetchFields no names", func() { tb.FetchFields(s, rid) }, []dataRef{{base, 2, false}}},
		{"Update", func() { tb.Update(s, rid, make([]byte, 12)) },
			[]dataRef{{db.PageAddr(rid.Page), 16, true}, {base, 14, true}}},
		{"UpdateFields", func() { tb.UpdateFields(s, rid, make([]byte, 12), "b") },
			[]dataRef{{db.PageAddr(rid.Page), 16, true}, {base, 2, true}, {base + 6, 8, true}}},
		{"UpdateFields no names", func() { tb.UpdateFields(s, rid, make([]byte, 12)) },
			[]dataRef{{db.PageAddr(rid.Page), 16, true}, {base, 2, true}}},
	}
	for _, tc := range cases {
		if got := last(len(tc.want), tc.fn); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: data references %v, want %v", tc.name, got, tc.want)
		}
	}
	want := map[string]db.FieldAccess{"a": {Reads: 1}, "b": {Reads: 1, Writes: 1}}
	if got := tb.FieldAccesses(); !reflect.DeepEqual(got, want) {
		t.Fatalf("field tally %v, want %v", got, want)
	}
}

func TestGroupCommitSingleProcess(t *testing.T) {
	eng, s := newEngine(t)
	tb := eng.CreateTable("t")
	rid := tb.Insert(s, []byte("aaaa"))
	flushes0 := eng.WAL.Flushes
	for i := 0; i < 5; i++ {
		s.Begin()
		tb.Update(s, rid, []byte{byte('a' + i), 'x', 'y', 'z'})
		s.Commit()
	}
	if eng.WAL.Flushes != flushes0+5 {
		t.Fatalf("flushes = %d, want %d (no grouping possible single-process)",
			eng.WAL.Flushes, flushes0+5)
	}
	if eng.WAL.FlushedLSN != eng.WAL.CurrentLSN() {
		t.Fatal("log not fully flushed after commits")
	}
}

func TestRecoveryRedoCommitted(t *testing.T) {
	eng, s := newEngine(t)
	tb := eng.CreateTable("t")
	rid := tb.Insert(s, []byte("orig"))
	eng.Pool.FlushAll() // checkpoint
	eng.WAL.MarkFlushed(eng.WAL.CurrentLSN())

	s.Begin()
	tb.Update(s, rid, []byte("new1"))
	s.Commit()
	s.Begin()
	rid2 := tb.Insert(s, []byte("new2"))
	s.Commit()
	// A transaction that never committed before the crash: its records are
	// in the log buffer tail or flushed but without a commit record.
	s.Begin()
	tb.Update(s, rid, []byte("bad!"))
	// Crash now: do NOT flush the pool; recover from disk + stable log.
	committed, err := db.Recover(eng.Disk, eng.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != 2 {
		t.Fatalf("committed txns = %v", committed)
	}
	// Re-open: read pages straight from disk.
	img := eng.Disk.Read(rid.Page)
	pg := &db.Page{ID: rid.Page, Data: img}
	rec, err := pg.Record(int(rid.Slot))
	if err != nil || string(rec) != "new1" {
		t.Fatalf("recovered rec = %q (%v)", rec, err)
	}
	img2 := eng.Disk.Read(rid2.Page)
	pg2 := &db.Page{ID: rid2.Page, Data: img2}
	rec2, err := pg2.Record(int(rid2.Slot))
	if err != nil || string(rec2) != "new2" {
		t.Fatalf("recovered insert = %q (%v)", rec2, err)
	}
}

func TestRecoveryIgnoresUnflushedTail(t *testing.T) {
	eng, s := newEngine(t)
	tb := eng.CreateTable("t")
	rid := tb.Insert(s, []byte("orig"))
	eng.Pool.FlushAll()
	eng.WAL.MarkFlushed(eng.WAL.CurrentLSN())
	// Commit record appended but pretend the flush never happened by
	// rolling FlushedLSN back is not possible through the API; instead
	// append updates without commit and verify they are not redone.
	s.Begin()
	tb.Update(s, rid, []byte("lost"))
	committed, err := db.Recover(eng.Disk, eng.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != 0 {
		t.Fatalf("committed = %v", committed)
	}
	img := eng.Disk.Read(rid.Page)
	pg := &db.Page{ID: rid.Page, Data: img}
	rec, _ := pg.Record(int(rid.Slot))
	if string(rec) != "orig" {
		t.Fatalf("uncommitted change leaked: %q", rec)
	}
}
