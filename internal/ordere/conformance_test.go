package ordere_test

import (
	"fmt"
	"math/rand"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/ordere"
	"codelayout/internal/program"
)

// TestDefaultScaleConformance drives thousands of transactions at the
// default (paper) scale through emitter-bound sessions on 1, 2 and 4
// engines, deep enough for every B-tree to split repeatedly mid-run — a
// regression test for probe/model drift that only appears past the quick
// scales, on the local paths and (with more than one engine) the
// distributed Payment.
func TestDefaultScaleConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("long conformance run in -short mode")
	}
	wl := ordere.New()
	img, err := appmodel.Build(appmodel.Config{Seed: 2001, LibScale: 0.25, ColdWords: 100_000, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, engines := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("engines=%d", engines), func(t *testing.T) {
			em := codegen.NewEmitter(img, l, 3)
			em.Sink = func(uint64, int32) {}
			engs := make([]*db.Engine, engines)
			ss, check := make([]*db.Session, engines), make([]*db.Session, engines)
			for i := range engs {
				engs[i] = db.NewEngine(db.Config{BufferPoolPages: wl.DataPages() + 4096, Shard: i})
				ss[i], check[i] = engs[i].NewSession(1, em), engs[i].NewSession(2, nil)
			}
			inst, err := wl.Load(engs)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(4))
			remote := 0
			for i := 0; i < 3000; i++ {
				in := inst.GenInput(r)
				if inst.Remote(in) {
					remote++
				}
				inst.RunTxn(ss, in)
				if !em.Idle() {
					t.Fatalf("txn %d: emitter not idle", i)
				}
			}
			if (remote > 0) != (engines > 1) {
				t.Fatalf("%d remote Payments on %d engine(s)", remote, engines)
			}
			if err := inst.Check(check); err != nil {
				t.Fatal(err)
			}
		})
	}
}
