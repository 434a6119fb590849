package workload_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	_ "codelayout/internal/ordere"
	"codelayout/internal/program"
	_ "codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// drawnKinds loads wl across the given number of engines and returns the
// set of Route.Kind labels over a few thousand GenInput draws.
func drawnKinds(t *testing.T, wl workload.Workload, shards int) map[string]bool {
	t.Helper()
	engs := make([]*db.Engine, shards)
	for i := range engs {
		engs[i] = db.NewEngine(db.Config{BufferPoolPages: wl.DataPages()/shards + 4096, Shard: i})
	}
	inst, err := wl.Load(engs)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	seen := make(map[string]bool)
	for i := 0; i < 4000; i++ {
		seen[inst.Route(inst.GenInput(r)).Kind] = true
	}
	return seen
}

// TestKindConformance: every registered workload's transaction kinds are
// enumerable through KindRoots. On one engine Route yields only declared
// kinds; on four engines with cross-shard traffic on it yields every one of
// them; and every declared root names a function of an app image built for
// the workload.
func TestKindConformance(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			wl, err := workload.New(name)
			if err != nil {
				t.Fatal(err)
			}
			wl = wl.QuickScale()
			if y, ok := wl.(*ycsb.Workload); ok {
				y.CrossShardPct = 10
			}
			declared := make(map[string]bool)
			img, err := appmodel.Build(appmodel.Config{Seed: 42, LibScale: 0.25, ColdWords: 200_000, Workload: wl})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range wl.KindRoots() {
				if declared[r.Kind] {
					t.Fatalf("kind %q declared twice", r.Kind)
				}
				declared[r.Kind] = true
				if img.Fns[r.Root] == nil {
					t.Errorf("kind %q: root %q is not a function of the app image", r.Kind, r.Root)
				}
			}
			for _, shards := range []int{1, 4} {
				seen := drawnKinds(t, wl, shards)
				for k := range seen {
					if !declared[k] {
						t.Errorf("%d shards: Route yields kind %q, which KindRoots does not declare", shards, k)
					}
				}
				if shards > 1 && len(seen) != len(declared) {
					t.Errorf("%d shards: Route yields kinds %v, KindRoots declares %v", shards, seen, declared)
				}
			}
		})
	}
}

// engineProbe is one engine's session probe: the emitter every session
// shares, counting the events raised through that engine's session.
type engineProbe struct {
	*codegen.Emitter
	n *int
}

func (p engineProbe) Enter(fn string)                  { *p.n++; p.Emitter.Enter(fn) }
func (p engineProbe) Leave(fn string)                  { *p.n++; p.Emitter.Leave(fn) }
func (p engineProbe) Branch(site string, taken bool)   { *p.n++; p.Emitter.Branch(site, taken) }
func (p engineProbe) Data(addr uint64, n int, wr bool) { *p.n++; p.Emitter.Data(addr, n, wr) }
func (p engineProbe) AbortUnwind()                     { *p.n++; p.Emitter.AbortUnwind() }

// touched returns the engines whose counts are nonzero, and zeroes them.
func touched(counts []int) []int {
	var engs []int
	for i, n := range counts {
		if n > 0 {
			engs = append(engs, i)
		}
		counts[i] = 0
	}
	return engs
}

// mispredict runs RunMispredicted and returns what it panicked with.
func mispredict(inst workload.Instance, s *db.Session, in workload.Input) (r any) {
	defer func() { r = recover() }()
	inst.RunMispredicted(s, in)
	return nil
}

// TestDefaultScaleConformance drives thousands of transactions of every
// registered workload at its default (paper) scale through emitter-bound
// sessions on 1, 2 and 4 engines, deep enough for every B-tree to split
// repeatedly mid-run — a regression test for probe/model drift that only
// appears past the quick scales. Each request's Route must match the
// engines it touches: RunTxn raises events on Home alone for a local
// request, and on Home and exactly one other engine for a remote one. Every
// remote request first takes the mispredicted fast path, which must unwind
// with ErrMispredict having touched only Home, and is then recovered the
// way the machine recovers it (emitter reset, every open branch aborted)
// before RunTxn reruns it. The emitter must be idle after every
// transaction, there must be remote traffic exactly when there is more than
// one engine, and the workload's consistency check must pass at the end.
func TestDefaultScaleConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("long conformance run in -short mode")
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.New(name)
			if err != nil {
				t.Fatal(err)
			}
			txns := 3000
			if y, ok := wl.(*ycsb.Workload); ok {
				// A quarter of the reads ask for a scatter read; on one
				// engine the same stream exercises the point paths alone.
				y.CrossShardPct = 25
				txns = 5000
			}
			img, err := appmodel.Build(appmodel.Config{Seed: 2001, LibScale: 0.25, ColdWords: 100_000, Workload: wl})
			if err != nil {
				t.Fatal(err)
			}
			kinds := make(map[string]bool)
			for _, kr := range wl.KindRoots() {
				kinds[kr.Kind] = true
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
					counts := make([]int, engines)
					for i := range engs {
						engs[i] = db.NewEngine(db.Config{BufferPoolPages: wl.DataPages() + 4096, Shard: i})
						ss[i] = engs[i].NewSession(1, engineProbe{Emitter: em, n: &counts[i]})
						check[i] = engs[i].NewSession(2, nil)
					}
					inst, err := wl.Load(engs)
					if err != nil {
						t.Fatal(err)
					}
					r := rand.New(rand.NewSource(4))
					remote := 0
					for i := 0; i < txns; i++ {
						in := inst.GenInput(r)
						rt := inst.Route(in)
						if !kinds[rt.Kind] {
							t.Fatalf("txn %d: kind %q is not among the KindRoots kinds", i, rt.Kind)
						}
						if rt.Remote {
							remote++
							if p := mispredict(inst, ss[rt.Home], in); p != workload.ErrMispredict {
								t.Fatalf("txn %d: RunMispredicted panicked with %v, want ErrMispredict", i, p)
							}
							if got := touched(counts); !slices.Equal(got, []int{rt.Home}) {
								t.Fatalf("txn %d: RunMispredicted touched engines %v, want only home %d", i, got, rt.Home)
							}
							em.Reset()
							for _, s := range ss {
								if s.Txn() != nil {
									s.Abort()
								}
							}
							touched(counts)
						}
						want := 1
						if rt.Remote {
							want = 2
						}
						inst.RunTxn(ss, in)
						if got := touched(counts); len(got) != want || !slices.Contains(got, rt.Home) {
							t.Fatalf("txn %d: RunTxn of %+v touched engines %v", i, rt, got)
						}
						if !em.Idle() {
							t.Fatalf("txn %d: emitter not idle", i)
						}
					}
					if (remote > 0) != (engines > 1) {
						t.Fatalf("%d remote transactions on %d engine(s)", remote, engines)
					}
					if err := inst.Check(check); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
