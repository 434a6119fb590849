// Package tpcb implements the OLTP workload of the paper: a TPC-B-style
// banking benchmark over the internal/db storage engine. Each transaction
// updates a random account, its teller and branch balances, and appends a
// history record, then commits (forcing the log with group commit).
//
// The database is scaled the way the paper's validated setup scales Oracle:
// 40 branches by default, with the per-branch account count reduced for
// simulation tractability (the paper itself uses a scaled-down 900 MB
// TPC-B database).
package tpcb

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"codelayout/internal/db"
	"codelayout/internal/workload"
)

// Scale configures database size.
type Scale struct {
	Branches          int
	TellersPerBranch  int
	AccountsPerBranch int
}

// DefaultScale mirrors the paper's 40-branch database, scaled down in
// accounts per branch to keep simulations fast.
func DefaultScale() Scale {
	return Scale{Branches: 40, TellersPerBranch: 10, AccountsPerBranch: 2500}
}

// Lock key spaces.
const (
	lockSpaceAccount = 1
	lockSpaceTeller  = 2
	lockSpaceBranch  = 3
)

// Record sizes per the TPC-B specification: 100-byte account/teller/branch
// rows, 50-byte history rows.
const (
	rowBytes     = 100
	historyBytes = 50
)

// balanceSchema declares the shared account/teller/branch record shape: the
// balance is the only field the transaction paths touch at runtime, so a
// grouped layout pulls it to the record head ahead of the cold id, branch
// and filler bytes. Declaration order reproduces the historical offsets
// (id@0, branch@8, balance@16).
func balanceSchema(table string) workload.TableSchema {
	return workload.TableSchema{Table: table, Fields: []workload.FieldSchema{
		{Name: "id", Width: 8},
		{Name: "branch", Width: 8},
		{Name: "balance", Width: 8, Hot: true},
		{Name: "filler", Width: rowBytes - 24},
	}}
}

// Schemas declares the workload's table schemas (history is insert-only and
// schema-free: whole-record appends gain nothing from field grouping).
func Schemas() []workload.TableSchema {
	return []workload.TableSchema{
		balanceSchema("account"),
		balanceSchema("teller"),
		balanceSchema("branch"),
	}
}

// rowOffsets is one table's resolved field offsets; encode/decode goes
// through it so a grouped physical layout changes the bytes transparently.
type rowOffsets struct {
	id, branch, balance int
}

func resolveOffsets(t *db.Table) rowOffsets {
	return rowOffsets{id: t.FieldOffset("id"), branch: t.FieldOffset("branch"), balance: t.FieldOffset("balance")}
}

// Bench is a loaded TPC-B database.
type Bench struct {
	Eng   *db.Engine
	Scale Scale

	// HotAccountFrac > 0 skews account draws: 80% of picks land in the
	// first HotAccountFrac fraction of each draw range (see Workload).
	HotAccountFrac float64

	Accounts *db.BTree
	Tellers  *db.BTree

	AcctTable   *db.Table
	TellerTable *db.Table
	BranchTable *db.Table
	HistTable   *db.Table

	acctOff rowOffsets
	tellOff rowOffsets
	brchOff rowOffsets

	branchRID []db.RID
	tellerRID []db.RID

	// owned lists the branches resident in this engine, ascending (one hash
	// partition; every branch when the database has a single engine).
	owned []uint64
}

// loadOwned creates one engine's slice of the database — the branches
// satisfying own, their tellers and accounts, and the per-engine indexes
// over them — through an uninstrumented session (the paper starts profiling
// only after setup and warmup), then checkpoints it (db.Engine.Checkpoint:
// pages on disk, the load's log records dropped), so measured runs start
// clean. A shard's engine holds only
// its partition, while IDs stay global so routed transactions address rows
// the same way at every shard count.
func loadOwned(eng *db.Engine, sc Scale, own func(branch uint64) bool) (*Bench, error) {
	s := eng.NewSession(0, nil)
	for _, name := range []string{"account", "teller", "branch", "history"} {
		eng.CreateTable(name)
	}
	eng.CreateBTree("account_pk")
	eng.CreateBTree("teller_pk")
	b := (&Bench{Scale: sc}).bind(eng)

	// The interleaved schema layout is the default; an engine field hint
	// (a grouped record layout) installed before load wins, and the
	// resolved offsets below follow it.
	for _, ts := range Schemas() {
		if err := eng.Table(ts.Table).EnsureFields(ts.Interleaved()); err != nil {
			return nil, err
		}
	}
	b.acctOff = resolveOffsets(b.AcctTable)
	b.tellOff = resolveOffsets(b.TellerTable)
	b.brchOff = resolveOffsets(b.BranchTable)

	b.branchRID = make([]db.RID, sc.Branches)
	b.tellerRID = make([]db.RID, sc.Branches*sc.TellersPerBranch)
	for br := 0; br < sc.Branches; br++ {
		if !own(uint64(br)) {
			continue
		}
		b.owned = append(b.owned, uint64(br))
		b.branchRID[br] = b.BranchTable.Insert(s, encodeRow(b.brchOff, uint64(br), uint64(br), 0))
	}
	for t := 0; t < sc.Branches*sc.TellersPerBranch; t++ {
		branch := uint64(t / sc.TellersPerBranch)
		if !own(branch) {
			continue
		}
		rid := b.TellerTable.Insert(s, encodeRow(b.tellOff, uint64(t), branch, 0))
		b.tellerRID[t] = rid
		if err := b.Tellers.Insert(s, uint64(t), rid.Pack()); err != nil {
			return nil, err
		}
	}
	for a := 0; a < sc.Branches*sc.AccountsPerBranch; a++ {
		branch := uint64(a / sc.AccountsPerBranch)
		if !own(branch) {
			continue
		}
		rid := b.AcctTable.Insert(s, encodeRow(b.acctOff, uint64(a), branch, 0))
		if err := b.Accounts.Insert(s, uint64(a), rid.Pack()); err != nil {
			return nil, err
		}
	}
	eng.Checkpoint()
	return b, nil
}

// bind returns a copy of b whose engine handles name eng's tables and
// B-trees. The row-ID tables and the owned list are shared: nothing writes
// them after the load.
func (b *Bench) bind(eng *db.Engine) *Bench {
	c := *b
	c.Eng = eng
	c.AcctTable, c.TellerTable = eng.Table("account"), eng.Table("teller")
	c.BranchTable, c.HistTable = eng.Table("branch"), eng.Table("history")
	c.Accounts, c.Tellers = eng.BTree("account_pk"), eng.BTree("teller_pk")
	return &c
}

// NumAccounts returns the total account count.
func (b *Bench) NumAccounts() int { return b.Scale.Branches * b.Scale.AccountsPerBranch }

// NumTellers returns the total teller count.
func (b *Bench) NumTellers() int { return b.Scale.Branches * b.Scale.TellersPerBranch }

// encodeRow packs a fixed 100-byte row (id, branch, balance, filler) at the
// table's resolved field offsets.
func encodeRow(o rowOffsets, id, branch uint64, balance int64) []byte {
	row := make([]byte, rowBytes)
	binary.LittleEndian.PutUint64(row[o.id:], id)
	binary.LittleEndian.PutUint64(row[o.branch:], branch)
	binary.LittleEndian.PutUint64(row[o.balance:], uint64(balance))
	return row
}

// balance reads the balance field at the resolved offset.
func (o rowOffsets) getBalance(row []byte) int64 {
	return int64(binary.LittleEndian.Uint64(row[o.balance:]))
}

// setBalance writes the balance field at the resolved offset.
func (o rowOffsets) setBalance(row []byte, v int64) {
	binary.LittleEndian.PutUint64(row[o.balance:], uint64(v))
}

// Input is one transaction request from a client.
type Input struct {
	Account uint64
	Teller  uint64
	Branch  uint64
	Delta   int64
}

// Gen draws a TPC-B request: uniform teller, account uniform or hot-skewed
// (HotAccountFrac), delta in [-999999, +999999]. The branch is the teller's
// branch.
func (b *Bench) Gen(r *rand.Rand) Input {
	teller := uint64(r.Intn(b.NumTellers()))
	return Input{
		Account: uint64(hotIndex(r, b.NumAccounts(), b.HotAccountFrac)),
		Teller:  teller,
		Branch:  teller / uint64(b.Scale.TellersPerBranch),
		Delta:   r.Int63n(1_999_999) - 999_999,
	}
}

// hotIndex draws an index in [0, n): uniform when frac is 0, otherwise 80%
// of draws land in the first max(1, frac*n) indexes — the classic hot-set
// contention model. frac must have been validated into [0, 1).
func hotIndex(r *rand.Rand, n int, frac float64) int {
	if frac <= 0 {
		return r.Intn(n)
	}
	hot := int(frac * float64(n))
	if hot < 1 {
		hot = 1
	}
	if hot < n && r.Intn(100) < 80 {
		return r.Intn(hot)
	}
	return r.Intn(n)
}

// Run executes one TPC-B transaction on the session and returns the new
// account balance. This is the instrumented top-level entry whose model is
// the root of the application's call graph.
func (b *Bench) Run(s *db.Session, in Input) int64 {
	s.PB.Enter("tpcb_txn")
	defer s.PB.Leave("tpcb_txn")
	s.PB.Data(s.ScratchAddr(1024), 256, true) // parsed request / session state
	s.Begin()
	bal := b.updAccount(s, in.Account, in.Delta)
	b.updTeller(s, in.Teller, in.Delta)
	b.updBranch(s, in.Branch, in.Delta)
	b.insHistory(s, in)
	s.Commit()
	return bal
}

func (b *Bench) updAccount(s *db.Session, acct uint64, delta int64) int64 {
	s.PB.Enter("upd_account")
	defer s.PB.Leave("upd_account")
	s.PB.Data(s.ScratchAddr(0), 192, true) // cursor/bind state
	packed, ok := b.Accounts.Search(s, acct)
	if !ok {
		// The account lives on another shard: a fast-path transaction
		// that was wrongly predicted local.
		workload.Mispredict(s.PB)
	}
	rid := db.UnpackRID(packed)
	s.LockX(db.LockKey(lockSpaceAccount, acct))
	row := b.AcctTable.FetchFields(s, rid, "balance")
	bal := b.acctOff.getBalance(row) + delta
	b.acctOff.setBalance(row, bal)
	s.PB.Data(s.ScratchAddr(256), 128, true) // row image in private buffer
	b.AcctTable.UpdateFields(s, rid, row, "balance")
	return bal
}

func (b *Bench) updTeller(s *db.Session, teller uint64, delta int64) {
	s.PB.Enter("upd_teller")
	defer s.PB.Leave("upd_teller")
	packed, ok := b.Tellers.Search(s, teller)
	if !ok {
		panic(fmt.Sprintf("tpcb: teller %d missing", teller))
	}
	rid := db.UnpackRID(packed)
	s.LockX(db.LockKey(lockSpaceTeller, teller))
	row := b.TellerTable.FetchFields(s, rid, "balance")
	b.tellOff.setBalance(row, b.tellOff.getBalance(row)+delta)
	s.PB.Data(s.ScratchAddr(512), 128, true)
	b.TellerTable.UpdateFields(s, rid, row, "balance")
}

func (b *Bench) updBranch(s *db.Session, branch uint64, delta int64) {
	s.PB.Enter("upd_branch")
	defer s.PB.Leave("upd_branch")
	rid := b.branchRID[branch]
	s.LockX(db.LockKey(lockSpaceBranch, branch))
	row := b.BranchTable.FetchFields(s, rid, "balance")
	b.brchOff.setBalance(row, b.brchOff.getBalance(row)+delta)
	s.PB.Data(s.ScratchAddr(768), 128, true)
	b.BranchTable.UpdateFields(s, rid, row, "balance")
}

func (b *Bench) insHistory(s *db.Session, in Input) {
	s.PB.Enter("ins_history")
	defer s.PB.Leave("ins_history")
	rec := make([]byte, historyBytes)
	binary.LittleEndian.PutUint64(rec[0:], in.Account)
	binary.LittleEndian.PutUint64(rec[8:], in.Teller)
	binary.LittleEndian.PutUint64(rec[16:], in.Branch)
	binary.LittleEndian.PutUint64(rec[24:], uint64(in.Delta))
	binary.LittleEndian.PutUint64(rec[32:], s.Txn().ID) // timestamp stand-in
	b.HistTable.Insert(s, rec)
}

// AccountBalance reads an account balance outside any transaction (tests
// and verification).
func (b *Bench) AccountBalance(s *db.Session, acct uint64) int64 {
	packed, ok := b.Accounts.Search(s, acct)
	if !ok {
		panic(fmt.Sprintf("tpcb: account %d missing", acct))
	}
	row := b.AcctTable.Fetch(s, db.UnpackRID(packed))
	return b.acctOff.getBalance(row)
}

// BranchBalance reads a branch balance (verification).
func (b *Bench) BranchBalance(s *db.Session, branch uint64) int64 {
	row := b.BranchTable.Fetch(s, b.branchRID[branch])
	return b.brchOff.getBalance(row)
}

// TellerBalance reads a teller balance (verification).
func (b *Bench) TellerBalance(s *db.Session, teller uint64) int64 {
	row := b.TellerTable.Fetch(s, b.tellerRID[teller])
	return b.tellOff.getBalance(row)
}
