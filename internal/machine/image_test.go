package machine_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/machine"
	"codelayout/internal/workload"
)

// groupedLayouts returns a non-interleaved record layout for every schema of
// wl: its fields in reverse declaration order.
func groupedLayouts(wl workload.Workload) map[string][]db.FieldDef {
	out := make(map[string][]db.FieldDef)
	for table, defs := range wl.RecordSchemas() {
		reversed := slices.Clone(defs)
		slices.Reverse(reversed)
		out[table] = db.PackFields(reversed...)
	}
	return out
}

// sameEngines fails unless want and got hold the same databases: every
// field of every engine, unexported ones included, except Env, which names
// the machine the engine belongs to.
func sameEngines(t *testing.T, want, got []*db.Engine) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d engines, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		parts := []struct {
			name string
			w, g any
		}{{"disk", w.Disk, g.Disk}, {"pool", w.Pool, g.Pool}, {"WAL", w.WAL, g.WAL}, {"locks", w.Locks, g.Locks}}
		for _, p := range parts {
			if !reflect.DeepEqual(p.w, p.g) {
				t.Fatalf("engine %d: the %s differs from a fresh load's", i, p.name)
			}
		}
		we, ge := w.Env, g.Env
		w.Env, g.Env = nil, nil
		same := reflect.DeepEqual(w, g)
		w.Env, g.Env = we, ge
		if !same {
			t.Fatalf("engine %d differs from a fresh load's (catalog or counters)", i)
		}
	}
}

func newMachine(t *testing.T, cfg machine.Config) *machine.Machine {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runChecked(t *testing.T, m *machine.Machine) (machine.Result, []machine.TxnLatency) {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res, m.LatencyByKind()
}

// TestLoadedImageMatchesFreshLoad: a workload value's first Load runs the
// loader on the machine's own engines; every later Load copies the template
// it kept. For every registered workload at quick scale, on 1, 2 and 8
// shards, with and without a grouped record layout, the copy equals the
// fresh load field for field, both run to the same Result and latency cells,
// and a copy taken after both ran still equals a fresh load — no run writes
// through to the template.
func TestLoadedImageMatchesFreshLoad(t *testing.T) {
	for _, name := range workload.Names() {
		base, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		app, appL, kern, kernL := testImages(t, base.QuickScale())
		for _, shards := range []int{1, 2, 8} {
			for _, grouped := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/grouped=%t", name, shards, grouped), func(t *testing.T) {
					cfg := configFor(base.QuickScale(), app, appL, kern, kernL)
					cfg.Shards = shards
					if grouped {
						cfg.RecordLayouts = groupedLayouts(cfg.Workload)
					}
					fresh, copied := newMachine(t, cfg), newMachine(t, cfg)
					sameEngines(t, fresh.Engines(), copied.Engines())
					rf, lf := runChecked(t, fresh)
					rc, lc := runChecked(t, copied)
					if rf != rc {
						t.Fatalf("a copy runs differently from a fresh load:\n%+v\n%+v", rc, rf)
					}
					if !reflect.DeepEqual(lf, lc) {
						t.Fatalf("latency cells differ:\n%+v\n%+v", lc, lf)
					}
					later := newMachine(t, cfg)
					cfg.Workload = base.QuickScale()
					sameEngines(t, newMachine(t, cfg).Engines(), later.Engines())
				})
			}
		}
	}
}

// TestConcurrentMachinesShareTheFirstLoad: machines built at once over one
// workload value race to load its database (the MeasureAll shape); one
// loads, the others wait and copy, and all run alike.
func TestConcurrentMachinesShareTheFirstLoad(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			cfg := testSetup(t, name)
			cfg.Shards = 2
			const n = 4
			results := make([]machine.Result, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					m, err := machine.New(cfg)
					if err == nil {
						results[i], err = m.Run()
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for i := range results {
				if errs[i] != nil {
					t.Fatalf("machine %d: %v", i, errs[i])
				}
				if results[i] != results[0] {
					t.Fatalf("machine %d ran on a different database:\n%+v\n%+v", i, results[i], results[0])
				}
			}
		})
	}
}
