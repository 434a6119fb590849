// Package ordere implements a TPC-C-inspired order-entry workload over the
// internal/db storage engine: a mix of New-Order transactions (multi-row
// inserts into order and order-line tables with a range scan summing the
// just-written lines) and Payment transactions (warehouse/district/customer
// cascading updates plus a history append).
//
// Its hot footprint is deliberately different from TPC-B's: B-tree inserts
// and leaf-chain range scans dominate over point updates, transactions touch
// 10-40 rows instead of 4, and the lock manager runs much hotter (every
// transaction serializes on one of Warehouses*Districts district rows or one
// of Warehouses warehouse rows). Layout passes trained on one workload can
// therefore be stress-tested on a genuinely different profile.
package ordere

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"codelayout/internal/db"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// Scale configures database size.
type Scale struct {
	Warehouses            int
	DistrictsPerWarehouse int
	CustomersPerDistrict  int
	Items                 int // stock rows = Warehouses * Items
}

// DefaultScale sizes the database in the same spirit as the paper's scaled
// 900 MB TPC-B setup: big enough that the engine's hot paths behave like a
// cached OLTP database, small enough to simulate.
func DefaultScale() Scale {
	return Scale{Warehouses: 8, DistrictsPerWarehouse: 10, CustomersPerDistrict: 300, Items: 2000}
}

// Spec spells the scale, the part of Workload.Spec the loaded database
// depends on ("wh8.d10.c300.i2000").
func (sc Scale) Spec() string {
	return fmt.Sprintf("wh%d.d%d.c%d.i%d", sc.Warehouses, sc.DistrictsPerWarehouse, sc.CustomersPerDistrict, sc.Items)
}

// Lock key spaces, in global acquisition order (warehouse before district
// before customer before stock), which precludes deadlock cycles: every
// transaction acquires at most one lock per space except stock, whose keys
// are sorted ascending per transaction.
const (
	lockSpaceWarehouse = 10
	lockSpaceDistrict  = 11
	lockSpaceCustomer  = 12
	lockSpaceStock     = 13
)

const (
	rowBytes     = 100
	historyBytes = 50

	// MaxLines is the largest order-line count; line numbers 1..MaxLines
	// pack under one order key with a stride of lineStride.
	MaxLines   = 15
	lineStride = 16
)

// Schemas returns the per-table field schemas: every table is a fixed
// 100-byte row of four u64 fields plus a wide cold filler, but each table's
// hot fields differ — the district's order-id allocator and the stock
// quantities belong to New-Order, the YTD and balance columns to Payment —
// so the layout grouped from a training run's field tallies has a different
// head per table.
func Schemas() map[string][]db.FieldDef {
	row := func(a, b, c, d string) []db.FieldDef {
		u64 := func(name string) db.FieldDef { return db.FieldDef{Name: name, Width: 8} }
		return db.PackFields(u64(a), u64(b), u64(c), u64(d), db.FieldDef{Name: "filler", Width: rowBytes - 32})
	}
	return map[string][]db.FieldDef{
		"warehouse":  row("id", "tag", "ytd", "reserved"),
		"district":   row("id", "warehouse", "ytd", "next_oid"),
		"customer":   row("id", "district", "balance", "credit"),
		"stock":      row("id", "warehouse", "qty", "ytd"),
		"orders":     row("key", "customer", "total", "lines"),
		"order_line": row("key", "item", "amount", "qty"),
	}
}

// offsets caches the resolved byte offsets of every live field, per table,
// under whatever layout (interleaved or grouped) the engine installed.
type offsets struct {
	whID, whTag, whYTD, whReserved              int
	distID, distWh, distYTD, distNext           int
	custID, custDist, custBal, custCredit       int
	stockID, stockWh, stockQty, stockYTD        int
	orderKey, orderCust, orderTotal, orderLines int
	lineKey, lineItem, lineAmount, lineQty      int
}

func resolveOffsets(m *Bench) {
	o := &m.off
	o.whID, o.whTag, o.whYTD, o.whReserved =
		m.WhTable.FieldOffset("id"), m.WhTable.FieldOffset("tag"),
		m.WhTable.FieldOffset("ytd"), m.WhTable.FieldOffset("reserved")
	o.distID, o.distWh, o.distYTD, o.distNext =
		m.DistTable.FieldOffset("id"), m.DistTable.FieldOffset("warehouse"),
		m.DistTable.FieldOffset("ytd"), m.DistTable.FieldOffset("next_oid")
	o.custID, o.custDist, o.custBal, o.custCredit =
		m.CustTable.FieldOffset("id"), m.CustTable.FieldOffset("district"),
		m.CustTable.FieldOffset("balance"), m.CustTable.FieldOffset("credit")
	o.stockID, o.stockWh, o.stockQty, o.stockYTD =
		m.StockTable.FieldOffset("id"), m.StockTable.FieldOffset("warehouse"),
		m.StockTable.FieldOffset("qty"), m.StockTable.FieldOffset("ytd")
	o.orderKey, o.orderCust, o.orderTotal, o.orderLines =
		m.OrderTable.FieldOffset("key"), m.OrderTable.FieldOffset("customer"),
		m.OrderTable.FieldOffset("total"), m.OrderTable.FieldOffset("lines")
	o.lineKey, o.lineItem, o.lineAmount, o.lineQty =
		m.LineTable.FieldOffset("key"), m.LineTable.FieldOffset("item"),
		m.LineTable.FieldOffset("amount"), m.LineTable.FieldOffset("qty")
}

// Row field helpers: u64/i64 access at resolved offsets.
func rowU(row []byte, off int) uint64       { return binary.LittleEndian.Uint64(row[off:]) }
func rowPutU(row []byte, off int, v uint64) { binary.LittleEndian.PutUint64(row[off:], v) }
func rowI(row []byte, off int) int64        { return int64(rowU(row, off)) }
func rowPutI(row []byte, off int, v int64)  { rowPutU(row, off, uint64(v)) }

// encodeRow4 builds a 100-byte row with the four u64 fields at the given
// resolved offsets.
func encodeRow4(o0, o1, o2, o3 int, f0, f1 uint64, f2, f3 int64) []byte {
	row := make([]byte, rowBytes)
	rowPutU(row, o0, f0)
	rowPutU(row, o1, f1)
	rowPutI(row, o2, f2)
	rowPutI(row, o3, f3)
	return row
}

// Bench is a loaded order-entry database.
type Bench struct {
	Eng   *db.Engine
	Scale Scale

	WhTable    *db.Table
	DistTable  *db.Table
	CustTable  *db.Table
	StockTable *db.Table
	OrderTable *db.Table
	LineTable  *db.Table
	HistTable  *db.Table

	Customers  *db.BTree // customer global id -> RID
	StockIdx   *db.BTree // warehouse*Items + item -> RID
	Orders     *db.BTree // order key -> RID
	OrderLines *db.BTree // order key * lineStride + line -> RID

	whRID   []db.RID
	distRID []db.RID

	off offsets

	// owned lists the warehouses resident in this engine, ascending (one hash
	// partition; every warehouse when the database has a single engine).
	owned []uint64
}

// loadOwned creates one engine's slice of the database — the warehouses
// satisfying own with their district, customer and stock rows plus the
// per-engine indexes — through an uninstrumented session and leaves it
// checkpointed, like the TPC-B loader. Order, order-line and history tables
// start empty on every engine; New-Orders are always warehouse-local, so
// they fill only their home shard's tables.
func loadOwned(eng *db.Engine, sc Scale, own func(warehouse uint64) bool) (*Bench, error) {
	s := eng.NewSession(0, nil)
	for _, name := range []string{"warehouse", "district", "customer", "stock", "orders", "order_line", "oe_history"} {
		eng.CreateTable(name)
	}
	for _, name := range []string{"customer_pk", "stock_pk", "order_pk", "order_line_pk"} {
		eng.CreateBTree(name)
	}
	m := (&Bench{Scale: sc}).bind(eng)

	for table, defs := range Schemas() {
		if err := eng.Table(table).EnsureFields(defs); err != nil {
			return nil, err
		}
	}
	resolveOffsets(m)

	m.whRID = make([]db.RID, sc.Warehouses)
	m.distRID = make([]db.RID, sc.Warehouses*sc.DistrictsPerWarehouse)
	for w := 0; w < sc.Warehouses; w++ {
		if !own(uint64(w)) {
			continue
		}
		m.owned = append(m.owned, uint64(w))
		m.whRID[w] = m.WhTable.Insert(s, encodeRow4(m.off.whID, m.off.whTag, m.off.whYTD, m.off.whReserved,
			uint64(w), uint64(w), 0, 0))
	}
	for dg := 0; dg < sc.Warehouses*sc.DistrictsPerWarehouse; dg++ {
		wh := uint64(dg / sc.DistrictsPerWarehouse)
		if !own(wh) {
			continue
		}
		// next_oid is d_next_o_id, starting at 1.
		m.distRID[dg] = m.DistTable.Insert(s, encodeRow4(m.off.distID, m.off.distWh, m.off.distYTD, m.off.distNext,
			uint64(dg), wh, 0, 1))
	}
	for cg := 0; cg < m.NumCustomers(); cg++ {
		dg := uint64(cg / sc.CustomersPerDistrict)
		wh := dg / uint64(sc.DistrictsPerWarehouse)
		if !own(wh) {
			continue
		}
		rid := m.CustTable.Insert(s, encodeRow4(m.off.custID, m.off.custDist, m.off.custBal, m.off.custCredit,
			uint64(cg), dg, 0, 0))
		if err := m.Customers.Insert(s, uint64(cg), rid.Pack()); err != nil {
			return nil, err
		}
	}
	for sk := 0; sk < sc.Warehouses*sc.Items; sk++ {
		wh := uint64(sk / sc.Items)
		if !own(wh) {
			continue
		}
		rid := m.StockTable.Insert(s, encodeRow4(m.off.stockID, m.off.stockWh, m.off.stockQty, m.off.stockYTD,
			uint64(sk), wh, 100, 0))
		if err := m.StockIdx.Insert(s, uint64(sk), rid.Pack()); err != nil {
			return nil, err
		}
	}
	eng.Checkpoint()
	return m, nil
}

// bind returns a copy of m whose engine handles name eng's tables and
// B-trees. The row-ID tables and the owned list are shared: nothing writes
// them after the load.
func (m *Bench) bind(eng *db.Engine) *Bench {
	c := *m
	c.Eng = eng
	c.WhTable, c.DistTable, c.CustTable = eng.Table("warehouse"), eng.Table("district"), eng.Table("customer")
	c.StockTable, c.OrderTable = eng.Table("stock"), eng.Table("orders")
	c.LineTable, c.HistTable = eng.Table("order_line"), eng.Table("oe_history")
	c.Customers, c.StockIdx = eng.BTree("customer_pk"), eng.BTree("stock_pk")
	c.Orders, c.OrderLines = eng.BTree("order_pk"), eng.BTree("order_line_pk")
	return &c
}

// NumCustomers returns the total customer count.
func (m *Bench) NumCustomers() int {
	return m.Scale.Warehouses * m.Scale.DistrictsPerWarehouse * m.Scale.CustomersPerDistrict
}

// Kind selects the transaction type.
type Kind int

const (
	// NewOrder inserts an order with 5-15 lines and updates stock rows.
	NewOrder Kind = iota
	// Payment applies an amount to a warehouse, district and customer.
	Payment
)

// Line is one requested order line.
type Line struct {
	Item uint64
	Qty  int64
}

// Input is one transaction request from a client.
type Input struct {
	Kind      Kind
	Warehouse uint64
	District  uint64 // within the warehouse
	Customer  uint64 // within the district
	// CWarehouse is the warehouse the paying customer belongs to: equal to
	// Warehouse except for a multi-engine run's remote Payments, which draw the
	// customer from another shard's warehouse (the cross-shard fraction).
	CWarehouse uint64
	Lines      []Line // New-Order only; items sorted ascending, deduplicated
	Amount     int64  // Payment only
}

// newOrderPct is the New-Order share of the mix (the rest are Payments).
const newOrderPct = 60

// Gen draws one request into in: 60% New-Order / 40% Payment, uniform
// warehouse, district and customer, 5-15 uniformly drawn items per order.
// Every field is overwritten, and the lines reuse in.Lines' backing array
// (given room for MaxLines lines the first time), so a caller that keeps
// one Input draws requests without allocating.
func (m *Bench) Gen(r *rand.Rand, in *Input) {
	sc := m.Scale
	lines := in.Lines[:0]
	*in = Input{
		Warehouse: uint64(r.Intn(sc.Warehouses)),
		District:  uint64(r.Intn(sc.DistrictsPerWarehouse)),
		Customer:  uint64(r.Intn(sc.CustomersPerDistrict)),
	}
	in.CWarehouse = in.Warehouse
	if r.Intn(100) < newOrderPct {
		in.Kind = NewOrder
		n := 5 + r.Intn(MaxLines-4)
		if cap(lines) < MaxLines {
			lines = make([]Line, 0, MaxLines)
		}
		for i := 0; i < n; i++ {
			item := uint64(r.Intn(sc.Items))
			if slices.ContainsFunc(lines, func(l Line) bool { return l.Item == item }) {
				continue // dedupe: one stock row per item per order
			}
			lines = append(lines, Line{Item: item, Qty: 1 + r.Int63n(10)})
		}
		// Ascending item order keeps stock lock acquisition deadlock-free.
		slices.SortFunc(lines, func(a, b Line) int { return cmp.Compare(a.Item, b.Item) })
	} else {
		in.Kind = Payment
		in.Amount = 1 + r.Int63n(5000)
	}
	in.Lines = lines // empty for a Payment, keeping the array for the next order
}

// Run executes one request on the session.
func (m *Bench) Run(s *db.Session, in Input) {
	if in.Kind == NewOrder {
		m.runNewOrder(s, in)
	} else {
		payment(m, s, m, s, in)
	}
}

func (m *Bench) distGlobal(in Input) uint64 {
	return in.Warehouse*uint64(m.Scale.DistrictsPerWarehouse) + in.District
}

// custGlobal returns the paying customer's global id, in the customer's own
// warehouse (CWarehouse — the remote one for cross-shard Payments).
func (m *Bench) custGlobal(in Input) uint64 {
	dg := in.CWarehouse*uint64(m.Scale.DistrictsPerWarehouse) + in.District
	return dg*uint64(m.Scale.CustomersPerDistrict) + in.Customer
}

// orderKey packs (district, per-district order id) into one index key.
func orderKey(distGlobal, oid uint64) uint64 { return distGlobal<<24 | oid }

// linePrice is the unit price of an item (a fixed pseudo-catalog).
func linePrice(item uint64) int64 { return int64(1 + item%100) }

// ---- New-Order ----

func (m *Bench) runNewOrder(s *db.Session, in Input) {
	s.PB.Enter("neworder_txn")
	defer s.PB.Leave("neworder_txn")
	s.PB.Data(s.ScratchAddr(1024), 320, true) // parsed request / order build area
	s.Begin()
	oid := m.noDistrict(s, in)
	m.noCustomer(s, in)
	for _, ln := range in.Lines {
		s.PB.Branch("no_line", true)
		m.noStock(s, in.Warehouse, ln)
	}
	s.PB.Branch("no_line", false)
	okey := orderKey(m.distGlobal(in), oid)
	orid := m.noInsert(s, in, okey)
	m.noTotal(s, okey, orid)
	s.Commit()
}

// noDistrict locks the district row and allocates the order id from its
// d_next_o_id field — the hot serialization point of the workload.
func (m *Bench) noDistrict(s *db.Session, in Input) uint64 {
	s.PB.Enter("no_district")
	defer s.PB.Leave("no_district")
	s.PB.Data(s.ScratchAddr(0), 192, true)
	dg := m.distGlobal(in)
	s.LockX(db.LockKey(lockSpaceDistrict, dg))
	rid := m.distRID[dg]
	row := m.DistTable.FetchFields(s, rid, "next_oid")
	oid := rowU(row, m.off.distNext)
	rowPutU(row, m.off.distNext, oid+1)
	s.PB.Data(s.ScratchAddr(256), 128, true)
	m.DistTable.UpdateFields(s, rid, row, "next_oid")
	return oid
}

// noCustomer reads the ordering customer under a shared lock.
func (m *Bench) noCustomer(s *db.Session, in Input) {
	s.PB.Enter("no_customer")
	defer s.PB.Leave("no_customer")
	cg := m.custGlobal(in)
	packed, ok := m.Customers.Search(s, cg)
	if !ok {
		panic(fmt.Sprintf("ordere: customer %d missing", cg))
	}
	s.LockS(db.LockKey(lockSpaceCustomer, cg))
	m.CustTable.FetchFields(s, db.UnpackRID(packed), "credit")
	s.PB.Data(s.ScratchAddr(384), 128, true)
}

// noStock decrements one item's stock quantity, restocking TPC-C style when
// it runs low.
func (m *Bench) noStock(s *db.Session, warehouse uint64, ln Line) {
	s.PB.Enter("no_stock")
	defer s.PB.Leave("no_stock")
	skey := warehouse*uint64(m.Scale.Items) + ln.Item
	packed, ok := m.StockIdx.Search(s, skey)
	if !ok {
		panic(fmt.Sprintf("ordere: stock %d missing", skey))
	}
	s.LockX(db.LockKey(lockSpaceStock, skey))
	rid := db.UnpackRID(packed)
	row := m.StockTable.FetchFields(s, rid, "qty", "ytd")
	qty := rowI(row, m.off.stockQty) - ln.Qty
	if qty < 10 {
		qty += 91
	}
	rowPutI(row, m.off.stockQty, qty)
	rowPutI(row, m.off.stockYTD, rowI(row, m.off.stockYTD)+ln.Qty)
	s.PB.Data(s.ScratchAddr(512), 128, true)
	m.StockTable.UpdateFields(s, rid, row, "qty", "ytd")
}

// noInsert writes the order row and its order lines, maintaining both
// B-tree indexes, and returns the order row's RID.
func (m *Bench) noInsert(s *db.Session, in Input, okey uint64) db.RID {
	s.PB.Enter("no_order")
	defer s.PB.Leave("no_order")
	orid := m.OrderTable.Insert(s, encodeRow4(m.off.orderKey, m.off.orderCust, m.off.orderTotal, m.off.orderLines,
		okey, m.custGlobal(in), 0, int64(len(in.Lines))))
	if err := m.Orders.Insert(s, okey, orid.Pack()); err != nil {
		panic(err)
	}
	for i, ln := range in.Lines {
		s.PB.Branch("no_insline", true)
		lkey := okey*lineStride + uint64(i+1)
		amount := linePrice(ln.Item) * ln.Qty
		lrid := m.LineTable.Insert(s, encodeRow4(m.off.lineKey, m.off.lineItem, m.off.lineAmount, m.off.lineQty,
			lkey, ln.Item, amount, ln.Qty))
		s.PB.Data(s.ScratchAddr(640), 96, true)
		if err := m.OrderLines.Insert(s, lkey, lrid.Pack()); err != nil {
			panic(err)
		}
	}
	s.PB.Branch("no_insline", false)
	return orid
}

// noTotal range-scans the order's lines off the order-line index, sums their
// amounts and writes the total back to the order row.
func (m *Bench) noTotal(s *db.Session, okey uint64, orid db.RID) {
	s.PB.Enter("no_total")
	defer s.PB.Leave("no_total")
	var buf [MaxLines]db.RID
	rids := buf[:0]
	m.OrderLines.ScanRange(s, okey*lineStride+1, okey*lineStride+MaxLines,
		func(_, val uint64) bool {
			rids = append(rids, db.UnpackRID(val))
			return true
		})
	var total int64
	for _, rid := range rids {
		s.PB.Branch("no_sum", true)
		total += rowI(m.LineTable.FetchFields(s, rid, "amount"), m.off.lineAmount)
	}
	s.PB.Branch("no_sum", false)
	row := m.OrderTable.FetchFields(s, orid, "total")
	rowPutI(row, m.off.orderTotal, total)
	s.PB.Data(s.ScratchAddr(768), 128, true)
	m.OrderTable.UpdateFields(s, orid, row, "total")
}

// ---- Payment ----

// payment runs one Payment: the warehouse, district and history on the home
// shard hb through hs, the customer on cb through cs. A local Payment (cs ==
// hs) commits on its one engine under payment_txn; a distributed one begins
// a branch on each engine and commits them through two-phase commit under
// payment_dist. A remote Payment the fast path guessed local runs as a local
// one on its home engine and unwinds in payCustomer.
func payment(hb *Bench, hs *db.Session, cb *Bench, cs *db.Session, in Input) {
	dist := cs != hs
	root := "payment_txn"
	if dist {
		root = "payment_dist"
	}
	hs.PB.Enter(root)
	defer hs.PB.Leave(root)
	hs.PB.Data(hs.ScratchAddr(1024), 256, true)
	hs.Begin()
	if dist {
		cs.Begin()
	}
	hb.payWarehouse(hs, in)
	hb.payDistrict(hs, in)
	cb.payCustomer(cs, in)
	hb.payHistory(hs, in)
	if dist {
		shard.Commit2PC(hs, cs)
	} else {
		hs.Commit()
	}
}

func (m *Bench) payWarehouse(s *db.Session, in Input) {
	s.PB.Enter("pay_warehouse")
	defer s.PB.Leave("pay_warehouse")
	s.LockX(db.LockKey(lockSpaceWarehouse, in.Warehouse))
	rid := m.whRID[in.Warehouse]
	row := m.WhTable.FetchFields(s, rid, "ytd")
	rowPutI(row, m.off.whYTD, rowI(row, m.off.whYTD)+in.Amount)
	s.PB.Data(s.ScratchAddr(0), 128, true)
	m.WhTable.UpdateFields(s, rid, row, "ytd")
}

func (m *Bench) payDistrict(s *db.Session, in Input) {
	s.PB.Enter("pay_district")
	defer s.PB.Leave("pay_district")
	dg := m.distGlobal(in)
	s.LockX(db.LockKey(lockSpaceDistrict, dg))
	rid := m.distRID[dg]
	row := m.DistTable.FetchFields(s, rid, "ytd")
	rowPutI(row, m.off.distYTD, rowI(row, m.off.distYTD)+in.Amount)
	s.PB.Data(s.ScratchAddr(256), 128, true)
	m.DistTable.UpdateFields(s, rid, row, "ytd")
}

func (m *Bench) payCustomer(s *db.Session, in Input) {
	s.PB.Enter("pay_customer")
	defer s.PB.Leave("pay_customer")
	cg := m.custGlobal(in)
	packed, ok := m.Customers.Search(s, cg)
	if !ok {
		// The customer lives on another shard: a fast-path Payment that
		// was wrongly predicted local.
		workload.Mispredict(s.PB)
	}
	s.LockX(db.LockKey(lockSpaceCustomer, cg))
	rid := db.UnpackRID(packed)
	row := m.CustTable.FetchFields(s, rid, "balance")
	rowPutI(row, m.off.custBal, rowI(row, m.off.custBal)+in.Amount)
	s.PB.Data(s.ScratchAddr(512), 128, true)
	m.CustTable.UpdateFields(s, rid, row, "balance")
}

func (m *Bench) payHistory(s *db.Session, in Input) {
	s.PB.Enter("pay_history")
	defer s.PB.Leave("pay_history")
	rec := make([]byte, historyBytes)
	binary.LittleEndian.PutUint64(rec[0:], m.custGlobal(in))
	binary.LittleEndian.PutUint64(rec[8:], uint64(in.Amount))
	binary.LittleEndian.PutUint64(rec[16:], s.Txn().ID)
	m.HistTable.Insert(s, rec)
}

// ---- Verification ----

// WarehouseYTD reads a warehouse's year-to-date total (verification).
func (m *Bench) WarehouseYTD(s *db.Session, w uint64) int64 {
	return rowI(m.WhTable.Fetch(s, m.whRID[w]), m.off.whYTD)
}

// DistrictYTD reads a district's year-to-date total (verification).
func (m *Bench) DistrictYTD(s *db.Session, dg uint64) int64 {
	return rowI(m.DistTable.Fetch(s, m.distRID[dg]), m.off.distYTD)
}

// CustomerBalance reads a customer balance (verification).
func (m *Bench) CustomerBalance(s *db.Session, cg uint64) int64 {
	packed, ok := m.Customers.Search(s, cg)
	if !ok {
		panic(fmt.Sprintf("ordere: customer %d missing", cg))
	}
	return rowI(m.CustTable.Fetch(s, db.UnpackRID(packed)), m.off.custBal)
}

// checkOrders verifies every resident order's total and line count against
// its order-line index entries.
func (m *Bench) checkOrders(s *db.Session) error {
	type ref struct {
		key uint64
		rid db.RID
	}
	var orders []ref
	m.Orders.ScanRange(s, 0, ^uint64(0), func(key, val uint64) bool {
		orders = append(orders, ref{key, db.UnpackRID(val)})
		return true
	})
	for _, o := range orders {
		// The line fetches below reuse the session's row buffer: read the
		// order row's fields before them.
		row := m.OrderTable.Fetch(s, o.rid)
		total, rec := rowI(row, m.off.orderTotal), rowI(row, m.off.orderLines)
		var sum int64
		lines := 0
		m.OrderLines.ScanRange(s, o.key*lineStride+1, o.key*lineStride+MaxLines,
			func(_, val uint64) bool {
				sum += rowI(m.LineTable.Fetch(s, db.UnpackRID(val)), m.off.lineAmount)
				lines++
				return true
			})
		if sum != total {
			return fmt.Errorf("ordere: order %d total %d, lines sum to %d", o.key, total, sum)
		}
		if int64(lines) != rec {
			return fmt.Errorf("ordere: order %d records %d lines, index has %d", o.key, rec, lines)
		}
	}
	return nil
}

// paymentSums totals the resident warehouses' YTDs, their districts' YTDs
// and their customers' balances.
func (m *Bench) paymentSums(s *db.Session) (whTotal, distTotal, custTotal int64) {
	sc := m.Scale
	for _, w := range m.owned {
		whTotal += m.WarehouseYTD(s, w)
		for d := 0; d < sc.DistrictsPerWarehouse; d++ {
			dg := w*uint64(sc.DistrictsPerWarehouse) + uint64(d)
			distTotal += m.DistrictYTD(s, dg)
			for c := 0; c < sc.CustomersPerDistrict; c++ {
				custTotal += m.CustomerBalance(s, dg*uint64(sc.CustomersPerDistrict)+uint64(c))
			}
		}
	}
	return whTotal, distTotal, custTotal
}
