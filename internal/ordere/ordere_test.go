package ordere_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/ordere"
	"codelayout/internal/workload"
)

func smallScale() ordere.Scale {
	return ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 100}
}

// loaded is the workload on one engine: the routed instance and its only
// bench.
type loaded struct {
	*ordere.Bench
	inst *ordere.Instance
}

// Check runs the instance's invariant audit over the one engine.
func (l loaded) Check(s *db.Session) error { return l.inst.Check([]*db.Session{s}) }

func load(t *testing.T, sc ordere.Scale) (loaded, *db.Session) {
	t.Helper()
	eng := db.NewEngine(db.Config{BufferPoolPages: 8192})
	wi, err := ordere.NewScaled(sc).Load([]*db.Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	inst := wi.(*ordere.Instance)
	return loaded{Bench: inst.Shards[0], inst: inst}, eng.NewSession(1, nil)
}

func TestLoadPopulates(t *testing.T) {
	m, s := load(t, smallScale())
	if got := m.Customers.Count(s); got != 240 {
		t.Fatalf("customers = %d", got)
	}
	if got := m.StockIdx.Count(s); got != 200 {
		t.Fatalf("stock rows = %d", got)
	}
	if got := m.Orders.Count(s); got != 0 {
		t.Fatalf("orders preloaded: %d", got)
	}
	if err := m.Customers.Validate(s); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(s); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsKeepInvariants(t *testing.T) {
	m, s := load(t, smallScale())
	r := rand.New(rand.NewSource(1))
	var paid int64
	orders, payments := 0, 0
	var in ordere.Input
	for i := 0; i < 300; i++ {
		m.Gen(r, &in)
		m.Run(s, in)
		if in.Kind == ordere.Payment {
			paid += in.Amount
			payments++
		} else {
			orders++
		}
	}
	if orders == 0 || payments == 0 {
		t.Fatalf("mix degenerate: %d orders, %d payments", orders, payments)
	}
	if m.Eng.Committed != 300 {
		t.Fatalf("committed = %d", m.Eng.Committed)
	}
	// Conservation against externally tracked totals.
	var whTotal int64
	for w := 0; w < smallScale().Warehouses; w++ {
		whTotal += m.WarehouseYTD(s, uint64(w))
	}
	if whTotal != paid {
		t.Fatalf("warehouse YTD %d, payments total %d", whTotal, paid)
	}
	if got := m.Orders.Count(s); got != orders {
		t.Fatalf("order index has %d orders, ran %d", got, orders)
	}
	// The full invariant checker agrees.
	if err := m.Check(s); err != nil {
		t.Fatal(err)
	}
	// Indexes stay structurally valid under mid-run splits.
	for _, bt := range []*db.BTree{m.Orders, m.OrderLines, m.Customers, m.StockIdx} {
		if err := bt.Validate(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	m, s := load(t, smallScale())
	r := rand.New(rand.NewSource(2))
	var in ordere.Input
	for i := 0; i < 50; i++ {
		m.Gen(r, &in)
		m.Run(s, in)
	}
	// Corrupt one order-line amount behind the workload's back.
	var victim db.RID
	m.OrderLines.ScanRange(s, 0, ^uint64(0), func(_, val uint64) bool {
		victim = db.UnpackRID(val)
		return false
	})
	row := m.LineTable.Fetch(s, victim)
	row[16] ^= 0xFF
	m.LineTable.Update(s, victim, row)
	if err := m.Check(s); err == nil {
		t.Fatal("Check missed a corrupted order line")
	}
}

func TestGenInputRanges(t *testing.T) {
	m, _ := load(t, smallScale())
	sc := smallScale()
	r := rand.New(rand.NewSource(3))
	var in ordere.Input
	for i := 0; i < 1000; i++ {
		m.Gen(r, &in)
		if in.Warehouse >= uint64(sc.Warehouses) || in.District >= uint64(sc.DistrictsPerWarehouse) ||
			in.Customer >= uint64(sc.CustomersPerDistrict) {
			t.Fatalf("ids out of range: %+v", in)
		}
		if in.Kind == ordere.NewOrder {
			if len(in.Lines) == 0 || len(in.Lines) > ordere.MaxLines {
				t.Fatalf("line count %d", len(in.Lines))
			}
			for j, ln := range in.Lines {
				if ln.Item >= uint64(sc.Items) || ln.Qty < 1 || ln.Qty > 10 {
					t.Fatalf("bad line %+v", ln)
				}
				if j > 0 && in.Lines[j-1].Item >= ln.Item {
					t.Fatal("lines not sorted/deduplicated")
				}
			}
		} else if in.Amount < 1 || in.Amount > 5000 {
			t.Fatalf("amount %d out of range", in.Amount)
		}
	}
}

func TestWorkloadAdapter(t *testing.T) {
	wl, err := workload.New("ordere")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "ordere" {
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
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		inst.RunTxn(ss, inst.GenInput(r, nil))
	}
	if err := inst.Check(ss); err != nil {
		t.Fatal(err)
	}
}
