package db_test

import (
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"codelayout/internal/db"
)

// loadedEngine builds a small database the way the workload loaders do — a
// table with a field layout, a table without one, a B-tree over the first,
// then a checkpoint — and commits one transaction after it, so the log is
// not empty.
func loadedEngine(t *testing.T, cfg db.Config) *db.Engine {
	t.Helper()
	eng := db.NewEngine(cfg)
	s := eng.NewSession(0, nil)
	tb := eng.CreateTable("acct")
	if err := tb.EnsureFields([]db.FieldDef{{Name: "id", Off: 0, Width: 8}, {Name: "bal", Off: 8, Width: 8}}); err != nil {
		t.Fatal(err)
	}
	eng.CreateTable("hist")
	bt := eng.CreateBTree("acct_pk")
	for i := 0; i < 3000; i++ {
		row := make([]byte, 100)
		binary.LittleEndian.PutUint64(row, uint64(i))
		if err := bt.Insert(s, uint64(i), tb.Insert(s, row).Pack()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Checkpoint()
	s.Begin()
	eng.Table("hist").Insert(s, make([]byte, 50))
	s.Commit()
	return eng
}

// sameDatabase compares two engines field for field, Env aside.
func sameDatabase(a, b *db.Engine) bool {
	ae, be := a.Env, b.Env
	a.Env, b.Env = nil, nil
	same := reflect.DeepEqual(a, b)
	a.Env, b.Env = ae, be
	return same
}

// TestCopyFromIsIndependent: a copy equals its source, and running
// transactions on the copy — updates, appends that grow a table and the log,
// commits — leaves the source as it was.
func TestCopyFromIsIndependent(t *testing.T) {
	cfg := db.Config{BufferPoolPages: 256, Shard: 1, PageLimit: 1 << 12}
	src := loadedEngine(t, cfg)
	dst := db.NewEngine(cfg)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !sameDatabase(src, dst) {
		t.Fatal("the copy differs from its source")
	}
	before, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	s := dst.NewSession(1, nil)
	for i := uint64(0); i < 200; i++ {
		s.Begin()
		packed, ok := dst.BTree("acct_pk").Search(s, i*7)
		if !ok {
			t.Fatalf("key %d missing from the copy", i*7)
		}
		rid := db.UnpackRID(packed)
		row := dst.Table("acct").FetchFields(s, rid, "bal")
		row[8]++
		dst.Table("acct").UpdateFields(s, rid, row, "bal")
		dst.Table("hist").Insert(s, make([]byte, 50))
		s.Commit()
	}
	if err := dst.BTree("acct_pk").Insert(s, 1<<40, 1); err != nil {
		t.Fatal(err)
	}
	if !sameDatabase(before, src) {
		t.Fatal("running on the copy changed its source")
	}
	if dst.Committed != 201 || src.Committed != 1 {
		t.Fatalf("committed: copy %d, source %d", dst.Committed, src.Committed)
	}
}

// TestCopyFromRefuses: a destination that is not empty or not of the
// source's geometry, and a source holding locks, are errors.
func TestCopyFromRefuses(t *testing.T) {
	cfg := db.Config{BufferPoolPages: 256}
	src := loadedEngine(t, cfg)
	hinted := db.NewEngine(cfg)
	if err := hinted.SetFieldHints(map[string][]db.FieldDef{"acct": {{Name: "bal", Off: 0, Width: 8}, {Name: "id", Off: 8, Width: 8}}}); err != nil {
		t.Fatal(err)
	}
	used := db.NewEngine(cfg)
	used.CreateTable("t")
	locked := loadedEngine(t, cfg)
	ls := locked.NewSession(1, nil)
	ls.Begin()
	ls.LockX(1)
	for _, c := range []struct {
		name     string
		dst, src *db.Engine
		want     string
	}{
		{"shard", db.NewEngine(db.Config{BufferPoolPages: 256, Shard: 1}), src, "geometry"},
		{"pool", db.NewEngine(db.Config{BufferPoolPages: 512}), src, "geometry"},
		{"limit", db.NewEngine(db.Config{BufferPoolPages: 256, PageLimit: 1 << 12}), src, "geometry"},
		{"stride", db.NewEngine(db.Config{BufferPoolPages: 256, Shard: 1, PageStride: 1 << 10}), db.NewEngine(db.Config{BufferPoolPages: 256, Shard: 1}), "geometry"},
		{"hints", hinted, src, "geometry"},
		{"not empty", used, src, "not empty"},
		{"locks", db.NewEngine(cfg), locked, "lock state"},
	} {
		err := c.dst.CopyFrom(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CopyFrom = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestCatalogNamesAreUnique: a second table or B-tree of one name panics at
// create time, and each catalog finds its own by name.
func TestCatalogNamesAreUnique(t *testing.T) {
	eng, _ := newEngine(t)
	tb, bt := eng.CreateTable("x"), eng.CreateBTree("x")
	if eng.Table("x") != tb || eng.BTree("x") != bt || eng.BTree("y") != nil {
		t.Fatal("catalog lookup by name")
	}
	for name, create := range map[string]func(){
		"table": func() { eng.CreateTable("x") },
		"btree": func() { eng.CreateBTree("x") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "twice") {
					t.Errorf("duplicate %s: recovered %v, want a panic", name, r)
				}
			}()
			create()
		}()
	}
}

// TestCheckpointDropsCoveredRecords: a checkpoint after committed work
// leaves an empty log whose LSNs and buffer offsets count on, and recovery
// from it redoes exactly the later commits. Keeping the covered records
// would make Recover redo the committed insert onto the checkpointed page
// and fail on the slot.
func TestCheckpointDropsCoveredRecords(t *testing.T) {
	eng, s := newEngine(t)
	tb := eng.CreateTable("t")
	s.Begin()
	rid := tb.Insert(s, []byte("orig"))
	s.Commit()
	lsn, off := eng.WAL.CurrentLSN(), eng.WAL.TotalAppended
	eng.Checkpoint()
	w := eng.WAL
	if w.Len() != 0 || w.CurrentLSN() != lsn || w.FlushedLSN != lsn || w.TotalAppended != off {
		t.Fatalf("after the checkpoint: %d records, LSN %d (flushed %d), offset %d; want 0, %d, %d, %d",
			w.Len(), w.CurrentLSN(), w.FlushedLSN, w.TotalAppended, lsn, lsn, off)
	}
	s.Begin()
	tb.Update(s, rid, []byte("new1"))
	s.Commit()
	if first := slices.Collect(w.All())[0]; first.LSN != lsn+1 {
		t.Fatalf("first record after the checkpoint has LSN %d, want %d", first.LSN, lsn+1)
	}
	committed, err := db.Recover(eng.Disk, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != 1 {
		t.Fatalf("committed txns = %v", committed)
	}
	pg := &db.Page{ID: rid.Page, Data: eng.Disk.Read(rid.Page)}
	if rec, err := pg.Record(int(rid.Slot)); err != nil || string(rec) != "new1" {
		t.Fatalf("recovered rec = %q (%v)", rec, err)
	}
}
