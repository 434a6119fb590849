package expt

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// threeSessions opens sessions evaluating TPC-B, order entry and YCSB over
// one source, all trained on TPC-B — the shape of a search's evaluator.
func threeSessions(t *testing.T) []*Session {
	t.Helper()
	wls := []workload.Workload{
		tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}),
		ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}),
		ycsb.NewScaled(ycsb.Scale{Records: 2500}),
	}
	o := tinySessionOptions(wls[0], nil)
	o.Train.Workload = wls[0]
	src, err := NewProfileSource(o, wls[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	var ss []*Session
	for _, wl := range wls {
		eo := o
		eo.Workload = wl
		s, err := NewSessionFrom(src, eo)
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s.Reading(NoSinks))
	}
	return ss
}

// waitNoGoroutineOver fails t unless the goroutine count falls back to
// before: the runtime may take a moment to retire a goroutine that has run
// its last statement.
func waitNoGoroutineOver(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) outlive MeasureAll", runtime.NumGoroutine()-before)
		}
	}
}

// TestMeasureAllBuildsEachLayoutOnce: one batch over three sessions of one
// source builds every layout once and simulates every (session, layout) cell
// once, and leaves no goroutine behind.
func TestMeasureAllBuildsEachLayoutOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	ss := threeSessions(t)
	layouts := []string{"base", "chain", "porder", "chain,split:none,porder:ph,materialize"}
	before := runtime.NumGoroutine()
	if err := MeasureAll(ss, layouts, ss[0].Opt.CPUs, 2); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineOver(t, before)
	for _, s := range ss {
		if got, want := s.MemoStats().Measure, (MemoCounters{Misses: uint64(len(layouts)), Entries: uint64(len(layouts))}); got != want {
			t.Errorf("%s: measure memo %+v, want %+v: one simulation per cell", s.Opt.Workload.Name(), got, want)
		}
	}
	// Every app layout plus the kernel baseline, each built once.
	ms := ss[0].MemoStats()
	if got, want := ms.Layout.Misses, uint64(len(layouts)+1); got != want {
		t.Errorf("layout memo misses %d, want %d: one build per layout", got, want)
	}
	if ms.Train.Misses != 1 || ms.Train.Entries != 1 {
		t.Errorf("train memo %+v, want one training run", ms.Train)
	}
}

// TestMeasureAllErrorWaitsForEveryCell: a layout that cannot be built fails
// its cells, and MeasureAll reports that error only once every other cell
// has finished — the one that fails first included — with no goroutine left
// running.
func TestMeasureAllErrorWaitsForEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	ss := threeSessions(t)
	layouts := []string{"no-such-layout", "base", "chain"}
	before := runtime.NumGoroutine()
	err := MeasureAll(ss, layouts, ss[0].Opt.CPUs, 2)
	if err == nil || !strings.Contains(err.Error(), "no-such-layout") {
		t.Fatalf("MeasureAll error %v, want the unknown layout's", err)
	}
	for _, s := range ss {
		m := s.measures
		m.mu.Lock()
		for key, e := range m.entries {
			select {
			case <-e.done:
				if (e.err != nil) != (key.layout == "no-such-layout") {
					t.Errorf("%s: cell %s: error %v", s.Opt.Workload.Name(), key.layout, e.err)
				}
			default:
				t.Errorf("%s: cell %s still running after MeasureAll returned", s.Opt.Workload.Name(), key.layout)
			}
		}
		if len(m.entries) != len(layouts) {
			t.Errorf("%s: %d cells measured, want %d", s.Opt.Workload.Name(), len(m.entries), len(layouts))
		}
		m.mu.Unlock()
	}
	waitNoGoroutineOver(t, before)
}

// TestMeasureBatchIsMeasureAllOfOne: Session.MeasureBatch leaves the memo
// state and the Measures a one-session MeasureAll leaves.
func TestMeasureBatchIsMeasureAllOfOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	open := func() *Session {
		return tinySession(t, tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}), nil).Reading(SinkApp4W(64))
	}
	layouts := []string{"base", "chain", "fusion"}
	a, b := open(), open()
	if err := a.MeasureBatch(layouts, a.Opt.CPUs, 2); err != nil {
		t.Fatal(err)
	}
	if err := MeasureAll([]*Session{b}, layouts, b.Opt.CPUs, 2); err != nil {
		t.Fatal(err)
	}
	if sa, sb := a.MemoStats(), b.MemoStats(); sa != sb {
		t.Fatalf("memo state differs:\n  MeasureBatch: %+v\n  MeasureAll:   %+v", sa, sb)
	}
	for _, l := range layouts {
		ma, err := a.Measure(l, a.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Measure(l, b.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ma, mb) {
			t.Errorf("%s: measures differ:\n  MeasureBatch: %+v\n  MeasureAll:   %+v", l, ma.Res, mb.Res)
		}
	}
}
