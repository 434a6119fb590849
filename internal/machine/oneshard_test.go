package machine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/profile"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// withCrossShardPct returns the named workload at quick scale with its
// cross-shard fraction overridden (0 keeps the workload's default).
func withCrossShardPct(t *testing.T, name string, pct int) workload.Workload {
	t.Helper()
	wl, err := workload.New(name)
	if err != nil {
		t.Fatal(err)
	}
	wl = wl.QuickScale()
	switch w := wl.(type) {
	case *tpcb.Workload:
		w.CrossShardPct = pct
	case *ordere.Workload:
		w.CrossShardPct = pct
	case *ycsb.Workload:
		w.CrossShardPct = pct
	default:
		t.Fatalf("workload %q (%T) is registered but this test cannot set its cross-shard fraction", name, wl)
	}
	return wl
}

// perEngineGen returns the request generator of the instance's first bench —
// the draw a lone engine has always made.
func perEngineGen(t *testing.T, inst workload.Instance) func(*rand.Rand) workload.Input {
	t.Helper()
	switch v := inst.(type) {
	case *tpcb.Instance:
		return func(r *rand.Rand) workload.Input { in := v.Shards[0].Gen(r); return &in }
	case *ordere.Instance:
		return func(r *rand.Rand) workload.Input { in := new(ordere.Input); v.Shards[0].Gen(r, in); return in }
	case *ycsb.Instance:
		return func(r *rand.Rand) workload.Input { in := v.Shards[0].Gen(r); return &in }
	}
	t.Fatalf("instance %T has no per-engine generator known to this test", inst)
	return nil
}

// distributedKind reports whether a kind label names a transaction variant
// that needs a second shard.
func distributedKind(kind string) bool {
	return strings.HasSuffix(kind, "_dist") || kind == "mget"
}

// TestOneEngineIsTheOnePartitionCase: for every registered workload, at its
// default cross-shard fraction and with the fraction forced to 100%, an
// instance loaded on one engine homes every request on shard 0, never calls
// one remote, never labels a distributed kind, and draws exactly the
// per-engine generator's request stream; a Pixie-profiled one-shard machine
// run commits every transaction without executing the router or the 2PC
// coordinator model once, and passes the invariant audit. Loading on no
// engine at all is a typed error naming the workload.
func TestOneEngineIsTheOnePartitionCase(t *testing.T) {
	for _, name := range workload.Names() {
		for _, pct := range []int{0, 100} {
			t.Run(fmt.Sprintf("%s/cross%d", name, pct), func(t *testing.T) {
				wl := withCrossShardPct(t, name, pct)

				for _, engs := range [][]*db.Engine{nil, {}} {
					var noEngines *workload.NoEnginesError
					if _, err := wl.Load(engs); !errors.As(err, &noEngines) || noEngines.Workload != wl.Name() {
						t.Fatalf("Load(%v) = %v, want a NoEnginesError naming %q", engs, err, wl.Name())
					}
				}

				load := func() workload.Instance {
					inst, err := wl.Load([]*db.Engine{db.NewEngine(db.Config{BufferPoolPages: wl.DataPages() + 4096})})
					if err != nil {
						t.Fatal(err)
					}
					return inst
				}
				inst, gen := load(), perEngineGen(t, load())
				r, plain := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
				for i := 0; i < 2000; i++ {
					in := inst.GenInput(r, nil)
					if want := gen(plain); !reflect.DeepEqual(in, want) {
						t.Fatalf("draw %d: got %+v, want the per-engine draw %+v", i, in, want)
					}
					if rt := inst.Route(in); rt.Home != 0 || rt.Remote {
						t.Fatalf("draw %d: home=%d remote=%v on one engine", i, rt.Home, rt.Remote)
					} else if distributedKind(rt.Kind) {
						t.Fatalf("draw %d labelled %q on one engine", i, rt.Kind)
					}
				}

				app, appL, kern, kernL := testImages(t, wl)
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = 1
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 6
				cfg.WarmupTxns = 20
				cfg.Transactions = 150
				px := profile.NewPixie(app.Prog, "pixie")
				cfg.AppCollector = px
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != 150 || res.CrossShard != 0 || res.Predicted != 0 {
					t.Fatalf("committed=%d crossShard=%d predicted=%d; want 150, 0, 0", res.Committed, res.CrossShard, res.Predicted)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				pf := px.Profile()
				if pf.TotalBlocks() == 0 {
					t.Fatal("the profile saw no blocks")
				}
				for _, model := range []string{"shard_route", "dist_commit"} {
					fn := app.Fns[model]
					if fn == nil {
						t.Fatalf("image has no %s model to count", model)
					}
					if n := pf.Count(fn.Proc.Entry()); n != 0 {
						t.Fatalf("%s executed %d times on one engine", model, n)
					}
				}
				for _, c := range m.LatencyByKind() {
					if c.Shard != 0 || distributedKind(c.Kind) {
						t.Fatalf("latency cell %d/%s on one engine", c.Shard, c.Kind)
					}
				}
			})
		}
	}
}
