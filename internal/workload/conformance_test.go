package workload_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/db"
	_ "codelayout/internal/ordere"
	_ "codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// drawnKinds loads wl across the given number of engines and returns the
// set of KindOf labels over a few thousand GenInput draws.
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
		seen[inst.KindOf(inst.GenInput(r))] = true
	}
	return seen
}

// TestKindConformance: every registered workload's transaction kinds are
// enumerable through KindRoots. On one engine KindOf yields only declared
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
						t.Errorf("%d shards: KindOf yields %q, which KindRoots does not declare", shards, k)
					}
				}
				if shards > 1 && len(seen) != len(declared) {
					t.Errorf("%d shards: KindOf yields %v, KindRoots declares %v", shards, seen, declared)
				}
			}
		})
	}
}
