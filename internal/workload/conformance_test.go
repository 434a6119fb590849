package workload_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/ordere"
	"codelayout/internal/probe"
	"codelayout/internal/program"
	_ "codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// loadAcross loads wl across the given number of fresh engines.
func loadAcross(t *testing.T, wl workload.Workload, shards int) workload.Instance {
	t.Helper()
	engs := make([]*db.Engine, shards)
	for i := range engs {
		engs[i] = db.NewEngine(db.Config{BufferPoolPages: wl.DataPages()/shards + 4096, Shard: i})
	}
	inst, err := wl.Load(engs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// drawnKinds loads wl across the given number of engines and returns the
// set of Route.Kind labels over a few thousand GenInput draws.
func drawnKinds(t *testing.T, wl workload.Workload, shards int) map[string]bool {
	t.Helper()
	inst := loadAcross(t, wl, shards)
	r := rand.New(rand.NewSource(5))
	seen := make(map[string]bool)
	for i := 0; i < 4000; i++ {
		seen[inst.Route(inst.GenInput(r, nil)).Kind] = true
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

// TestRecordSchemaConformance: every registered workload, loaded at its
// quick scale on one engine, installs exactly the layouts RecordSchemas
// declares — valid ones, packed in declaration order — and a run of
// requests tallies field accesses only on declared tables, so the grouped
// record layout decided from the tallies covers every field it reorders.
func TestRecordSchemaConformance(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			wl, err := workload.New(name)
			if err != nil {
				t.Fatal(err)
			}
			wl = wl.QuickScale()
			eng := db.NewEngine(db.Config{BufferPoolPages: wl.DataPages() + 4096})
			inst, err := wl.Load([]*db.Engine{eng})
			if err != nil {
				t.Fatal(err)
			}
			schemas := wl.RecordSchemas()
			if len(schemas) == 0 {
				t.Fatal("no record schemas")
			}
			for table, defs := range schemas {
				if err := db.ValidateFieldDefs(table, defs); err != nil {
					t.Fatal(err)
				}
				if packed := db.PackFields(defs...); !slices.Equal(defs, packed) {
					t.Errorf("table %q declares %v, not packed in declaration order (%v)", table, defs, packed)
				}
				tb := eng.Table(table)
				if tb == nil {
					t.Fatalf("table %q is declared but not created", table)
				}
				if got := tb.Fields(); !slices.Equal(got, defs) {
					t.Errorf("table %q holds %v after Load, want the declared %v", table, got, defs)
				}
			}
			ss := []*db.Session{eng.NewSession(1, probe.Nop{})}
			r := rand.New(rand.NewSource(3))
			for i := 0; i < 200; i++ {
				inst.RunTxn(ss, inst.GenInput(r, nil))
			}
			prof := eng.FieldProfile()
			if len(prof) == 0 {
				t.Fatal("200 requests tallied no field access")
			}
			for table := range prof {
				if _, ok := schemas[table]; !ok {
					t.Errorf("table %q tallies field accesses but declares no schema", table)
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
						in := inst.GenInput(r, nil)
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

// reuseInstance loads the named workload at its quick scale across the given
// number of engines, with a non-zero cross-shard share: ycsb, which has none
// by default, gets a quarter of its reads as scatter reads.
func reuseInstance(t *testing.T, name string, shards int) workload.Instance {
	t.Helper()
	wl, err := workload.New(name)
	if err != nil {
		t.Fatal(err)
	}
	wl = wl.QuickScale()
	if y, ok := wl.(*ycsb.Workload); ok {
		y.CrossShardPct = 25
	}
	if wl.Partitioning().CrossShardPct == 0 {
		t.Fatalf("%s: no cross-shard share to draw remote requests from", wl.Spec())
	}
	return loadAcross(t, wl, shards)
}

// requestText prints, field by field, the request in points at. fmt prints
// a nil and an empty slice alike, so a request whose reused Lines are empty
// reads the same as a fresh one whose Lines are nil.
func requestText(in workload.Input) string {
	return fmt.Sprintf("%T %+v", in, reflect.ValueOf(in).Elem().Interface())
}

// TestGenInputReuseDrawsTheSameStream: for every registered workload on one
// and four engines, a stream drawn by handing each request back to the next
// GenInput equals, draw for draw, one drawn with prev = nil from an RNG of
// the same seed — the same Route and the same request. A reused request
// must not keep anything of the one before it.
func TestGenInputReuseDrawsTheSameStream(t *testing.T) {
	for _, name := range workload.Names() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				inst := reuseInstance(t, name, shards)
				r, fresh := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
				var prev workload.Input
				remote := 0
				for i := 0; i < 4000; i++ {
					prev = inst.GenInput(r, prev)
					want := inst.GenInput(fresh, nil)
					rt := inst.Route(prev)
					if wrt := inst.Route(want); rt != wrt {
						t.Fatalf("draw %d: reused request routes %+v, fresh one %+v", i, rt, wrt)
					}
					if got, want := requestText(prev), requestText(want); got != want {
						t.Fatalf("draw %d: reused request %s, fresh one %s", i, got, want)
					}
					if rt.Remote {
						remote++
					}
				}
				if (remote > 0) != (shards > 1) {
					t.Fatalf("%d remote requests on %d engine(s)", remote, shards)
				}
			})
		}
	}
}

// TestGenInputReuseAllocatesNothing: once a request exists, refilling it
// allocates nothing, for every kind each registered workload's Route
// yields on one and four engines, and for an order-entry New-Order with the
// most lines an order can have. Each measured draw re-seeds the RNG, so
// every run of it draws the one request of the chosen kind.
func TestGenInputReuseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, name := range workload.Names() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				inst := reuseInstance(t, name, shards)
				seeds := make(map[string]int64) // case → a seed whose first draw is one
				var cases []string
				for seed := int64(1); seed <= 3000; seed++ {
					in := inst.GenInput(rand.New(rand.NewSource(seed)), nil)
					c := inst.Route(in).Kind
					if o, ok := in.(*ordere.Input); ok && len(o.Lines) == ordere.MaxLines {
						c += fmt.Sprintf(" with %d lines", ordere.MaxLines)
					}
					if _, ok := seeds[c]; !ok {
						seeds[c] = seed
						cases = append(cases, c)
					}
				}
				if want := fmt.Sprintf("neworder with %d lines", ordere.MaxLines); name == "ordere" && seeds[want] == 0 {
					t.Fatalf("no seed draws a %s", want)
				}
				r := rand.New(rand.NewSource(1))
				prev := inst.GenInput(r, nil)
				for _, c := range cases {
					seed := seeds[c]
					draw := func() {
						r.Seed(seed)
						prev = inst.GenInput(r, prev)
					}
					if n := testing.AllocsPerRun(100, draw); n != 0 {
						t.Errorf("%s (seed %d): %v allocations per reused draw, want 0", c, seed, n)
					}
				}
			})
		}
	}
}
