package appmodel_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/ordere"
	"codelayout/internal/program"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

func TestBuildDefaultShape(t *testing.T) {
	img, err := appmodel.Build(appmodel.Config{Seed: 1, LibScale: 1.0, ColdWords: 6_400_000, Workload: tpcb.New()})
	if err != nil {
		t.Fatal(err)
	}
	st := img.Prog.ComputeStats()
	if st.ColdProcs == 0 || st.ColdProcs >= st.Procs {
		t.Fatalf("procs=%d cold=%d", st.Procs, st.ColdProcs)
	}
	// Static image should be in the tens of MB; hot code in the 100s of KB.
	mb := float64(st.BodyWords*4) / (1 << 20)
	if mb < 15 || mb > 40 {
		t.Fatalf("static size = %.1f MB", mb)
	}
	hotKB := float64(st.HotWords*4) / 1024
	if hotKB < 120 || hotKB > 500 {
		t.Fatalf("hot code = %.1f KB", hotKB)
	}
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRequiresWorkload(t *testing.T) {
	if _, err := appmodel.Build(appmodel.Config{Seed: 1, LibScale: 0.2, ColdWords: 50_000}); err == nil {
		t.Fatal("expected error for missing workload")
	}
}

// TestBuildPerWorkloadRoots checks that the image carries exactly the
// configured workload's transaction roots.
func TestBuildPerWorkloadRoots(t *testing.T) {
	tb, err := appmodel.Build(appmodel.Config{Seed: 1, LibScale: 0.2, ColdWords: 50_000, Workload: tpcb.New()})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Prog.FindProc("tpcb_txn") == nil {
		t.Fatal("tpcb image missing tpcb_txn")
	}
	if tb.Prog.FindProc("neworder_txn") != nil {
		t.Fatal("tpcb image contains order-entry models")
	}
	oe, err := appmodel.Build(appmodel.Config{Seed: 1, LibScale: 0.2, ColdWords: 50_000, Workload: ordere.New()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"neworder_txn", "payment_txn", "bt_range", "no_total"} {
		if oe.Prog.FindProc(fn) == nil {
			t.Fatalf("ordere image missing %s", fn)
		}
	}
	if oe.Prog.FindProc("tpcb_txn") != nil {
		t.Fatal("ordere image contains TPC-B models")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := appmodel.Build(appmodel.Config{Seed: 5, LibScale: 0.2, ColdWords: 100_000, Workload: tpcb.New()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appmodel.Build(appmodel.Config{Seed: 5, LibScale: 0.2, ColdWords: 100_000, Workload: tpcb.New()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prog.NumBlocks() != b.Prog.NumBlocks() || len(a.Prog.Procs) != len(b.Prog.Procs) {
		t.Fatal("same seed produced different images")
	}
	for i, pr := range a.Prog.Procs {
		if b.Prog.Procs[i].Name != pr.Name {
			t.Fatalf("proc %d: %s vs %s", i, pr.Name, b.Prog.Procs[i].Name)
		}
	}
}

// conformanceWorkloads builds a tiny instance of each workload for emitter
// conformance runs.
func conformanceWorkloads() map[string]workload.Workload {
	return map[string]workload.Workload{
		"tpcb":   tpcb.NewScaled(tpcb.Scale{Branches: 3, TellersPerBranch: 3, AccountsPerBranch: 150}),
		"ordere": ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 2, CustomersPerDistrict: 50, Items: 100}),
	}
}

// TestEngineModelConformance drives real transactions through an emitter
// bound to the image, for every workload; any probe/model mismatch panics
// inside the emitter.
func TestEngineModelConformance(t *testing.T) {
	for name, wl := range conformanceWorkloads() {
		t.Run(name, func(t *testing.T) {
			img, err := appmodel.Build(appmodel.Config{Seed: 2, LibScale: 0.2, ColdWords: 50_000, Workload: wl})
			if err != nil {
				t.Fatal(err)
			}
			l, err := program.BaselineLayout(img.Prog)
			if err != nil {
				t.Fatal(err)
			}
			em := codegen.NewEmitter(img, l, 3)
			em.Sink = func(uint64, int32) {}

			eng := db.NewEngine(db.Config{BufferPoolPages: 8192})
			inst, err := wl.Load([]*db.Engine{eng})
			if err != nil {
				t.Fatal(err)
			}
			ss := []*db.Session{eng.NewSession(1, em)}
			r := rand.New(rand.NewSource(4))
			for i := 0; i < 100; i++ {
				inst.RunTxn(ss, inst.GenInput(r, nil))
				if !em.Idle() {
					t.Fatalf("txn %d: emitter not idle after transaction", i)
				}
			}
			if em.Instructions == 0 {
				t.Fatal("no instructions emitted")
			}
			// Instrumented per-transaction instruction cost should be
			// substantial (thousands of instructions), like a database
			// transaction.
			per := float64(em.Instructions) / 100
			if per < 2000 {
				t.Fatalf("only %.0f instructions per transaction", per)
			}
			if err := inst.Check([]*db.Session{eng.NewSession(2, nil)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortPathConformance exercises the txn_abort model, which normal
// transactions never reach.
func TestAbortPathConformance(t *testing.T) {
	img, err := appmodel.Build(appmodel.Config{Seed: 2, LibScale: 0.2, ColdWords: 50_000, Workload: tpcb.New()})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := program.BaselineLayout(img.Prog)
	em := codegen.NewEmitter(img, l, 3)
	em.Sink = func(uint64, int32) {}
	eng := db.NewEngine(db.Config{BufferPoolPages: 1024})
	tb := eng.CreateTable("t")
	s0 := eng.NewSession(0, nil)
	rid := tb.Insert(s0, make([]byte, 64))

	s := eng.NewSession(1, em)
	s.Begin()
	tb.Update(s, rid, make([]byte, 64))
	s.Abort()
	if !em.Idle() {
		t.Fatal("emitter not idle after abort")
	}
}
