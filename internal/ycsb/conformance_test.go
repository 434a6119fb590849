package ycsb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/program"
	"codelayout/internal/ycsb"
)

// TestDefaultScaleConformance drives thousands of operations at the default
// (paper) scale through emitter-bound sessions on 1, 2 and 4 engines — a
// regression test for probe/model drift on the read, update and scatter
// paths. A quarter of the reads ask for a scatter read; on one engine there
// is no second shard to read from, so the same request stream exercises the
// point paths alone.
func TestDefaultScaleConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("long conformance run in -short mode")
	}
	wl := ycsb.New()
	wl.CrossShardPct = 25
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
			engs := newEngines(engines) // 8192-page pools hold the default scale's ~2000 pages
			ss, check := make([]*db.Session, engines), make([]*db.Session, engines)
			for i, e := range engs {
				ss[i], check[i] = e.NewSession(1, em), e.NewSession(2, nil)
			}
			inst, err := wl.Load(engs)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(4))
			scatter := 0
			for i := 0; i < 5000; i++ {
				in := inst.GenInput(r)
				if inst.Remote(in) {
					scatter++
				}
				inst.RunTxn(ss, in)
				if !em.Idle() {
					t.Fatalf("op %d: emitter not idle", i)
				}
			}
			if (scatter > 0) != (engines > 1) {
				t.Fatalf("%d scatter reads on %d engine(s)", scatter, engines)
			}
			if err := inst.Check(check); err != nil {
				t.Fatal(err)
			}
		})
	}
}
