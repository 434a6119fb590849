package tpcb_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// loadInstance loads the workload on one engine.
func loadInstance(t *testing.T, sc tpcb.Scale) (*tpcb.Instance, *db.Session) {
	t.Helper()
	eng := db.NewEngine(db.Config{BufferPoolPages: 8192})
	inst, err := tpcb.NewScaled(sc).Load([]*db.Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*tpcb.Instance), eng.NewSession(1, nil)
}

// load returns the one engine's bench of a single-engine load.
func load(t *testing.T, sc tpcb.Scale) (*tpcb.Bench, *db.Session) {
	t.Helper()
	inst, s := loadInstance(t, sc)
	return inst.Shards[0], s
}

func smallScale() tpcb.Scale {
	return tpcb.Scale{Branches: 4, TellersPerBranch: 5, AccountsPerBranch: 100}
}

func TestLoadPopulates(t *testing.T) {
	b, s := load(t, smallScale())
	if got := b.Accounts.Count(s); got != 400 {
		t.Fatalf("accounts = %d", got)
	}
	if got := b.Tellers.Count(s); got != 20 {
		t.Fatalf("tellers = %d", got)
	}
	if b.AccountBalance(s, 0) != 0 {
		t.Fatal("nonzero initial balance")
	}
}

func TestTransactionsBalance(t *testing.T) {
	b, s := load(t, smallScale())
	r := rand.New(rand.NewSource(1))
	var total int64
	perBranch := make(map[uint64]int64)
	perTeller := make(map[uint64]int64)
	perAccount := make(map[uint64]int64)
	for i := 0; i < 300; i++ {
		in := b.Gen(r)
		b.Run(s, in)
		total += in.Delta
		perBranch[in.Branch] += in.Delta
		perTeller[in.Teller] += in.Delta
		perAccount[in.Account] += in.Delta
	}
	// TPC-B consistency: balances reflect the sum of applied deltas.
	var sumBranches int64
	for br, want := range perBranch {
		got := b.BranchBalance(s, br)
		if got != want {
			t.Fatalf("branch %d balance %d, want %d", br, got, want)
		}
		sumBranches += got
	}
	if sumBranches != total {
		t.Fatalf("branch sum %d != total %d", sumBranches, total)
	}
	for tl, want := range perTeller {
		if got := b.TellerBalance(s, tl); got != want {
			t.Fatalf("teller %d balance %d, want %d", tl, got, want)
		}
	}
	for ac, want := range perAccount {
		if got := b.AccountBalance(s, ac); got != want {
			t.Fatalf("account %d balance %d, want %d", ac, got, want)
		}
	}
	if b.Eng.Committed != 300 {
		t.Fatalf("committed = %d", b.Eng.Committed)
	}
}

func TestHistoryGrows(t *testing.T) {
	b, s := load(t, smallScale())
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		b.Run(s, b.Gen(r))
	}
	if len(b.HistTable.Pages) == 0 {
		t.Fatal("no history pages")
	}
	// Each committed transaction forces the log.
	if b.Eng.WAL.Flushes < 50 {
		t.Fatalf("flushes = %d", b.Eng.WAL.Flushes)
	}
}

func TestRecoveryAfterWorkload(t *testing.T) {
	b, s := load(t, smallScale())
	r := rand.New(rand.NewSource(3))
	want := make(map[uint64]int64)
	for i := 0; i < 100; i++ {
		in := b.Gen(r)
		b.Run(s, in)
		want[in.Account] += in.Delta
	}
	// Crash without checkpointing; recover from load-time disk + log.
	if _, err := db.Recover(b.Eng.Disk, b.Eng.WAL); err != nil {
		t.Fatal(err)
	}
	// Rebuild a fresh engine over the recovered disk is beyond this test's
	// scope; instead verify recovered page images contain the right
	// balances by reading through a scratch page for a few accounts.
	for acct, delta := range want {
		packed, ok := b.Accounts.Search(s, acct)
		if !ok {
			t.Fatalf("account %d missing", acct)
		}
		rid := db.UnpackRID(packed)
		img := b.Eng.Disk.Read(rid.Page)
		pg := &db.Page{ID: rid.Page, Data: img}
		rec, err := pg.Record(int(rid.Slot))
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(uint64le(rec[16:])); got != delta {
			t.Fatalf("recovered account %d balance %d, want %d", acct, got, delta)
		}
		break // one account suffices with map iteration randomized
	}
}

func uint64le(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestCheckInvariant exercises the workload.Instance invariant checker:
// clean after transactions, failing after corruption.
func TestCheckInvariant(t *testing.T) {
	inst, s := loadInstance(t, smallScale())
	b, ss := inst.Shards[0], []*db.Session{s}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		inst.RunTxn(ss, inst.GenInput(r, nil))
	}
	if err := inst.Check(ss); err != nil {
		t.Fatal(err)
	}
	// Corrupt one teller balance behind the workload's back; Check must
	// notice the conservation break.
	packed, ok := b.Tellers.Search(s, 0)
	if !ok {
		t.Fatal("teller 0 missing")
	}
	rid := db.UnpackRID(packed)
	row := b.TellerTable.Fetch(s, rid)
	row[16] ^= 0xFF
	b.TellerTable.Update(s, rid, row)
	if err := inst.Check(ss); err == nil {
		t.Fatal("Check missed a corrupted teller balance")
	}
}

// TestWorkloadAdapter covers the workload seam: registry resolution, quick
// scaling, and page estimation.
func TestWorkloadAdapter(t *testing.T) {
	wl, err := workload.New("tpcb")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "tpcb" {
		t.Fatalf("name = %q", wl.Name())
	}
	q := wl.QuickScale()
	if q.DataPages() >= wl.DataPages() {
		t.Fatalf("quick scale not smaller: %d vs %d", q.DataPages(), wl.DataPages())
	}
	eng := db.NewEngine(db.Config{BufferPoolPages: q.DataPages() + 4096})
	inst, err := q.Load([]*db.Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	ss := []*db.Session{eng.NewSession(1, nil)}
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		inst.RunTxn(ss, inst.GenInput(r, nil))
	}
	if err := inst.Check(ss); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.New("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestGenInputRanges(t *testing.T) {
	b, _ := load(t, smallScale())
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		in := b.Gen(r)
		if in.Account >= uint64(b.NumAccounts()) {
			t.Fatalf("account %d out of range", in.Account)
		}
		if in.Teller >= uint64(b.NumTellers()) {
			t.Fatalf("teller %d out of range", in.Teller)
		}
		if in.Branch != in.Teller/uint64(b.Scale.TellersPerBranch) {
			t.Fatalf("branch %d not teller's", in.Branch)
		}
		if in.Delta < -999_999 || in.Delta > 999_999 {
			t.Fatalf("delta %d out of range", in.Delta)
		}
	}
}
