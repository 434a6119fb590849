package expt

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"codelayout/internal/codegen"
	"codelayout/internal/program"
)

// TestReleaseAllFreesAndKeepsCounters: after a batch and ReleaseAll, the
// released measurement, layout and specialized image are garbage; every memo
// counter equals that of the same calls with no release; and asking for a
// released cell again simulates it once more and yields an equal Measure.
// Releasing a key mid-build waits for the build.
func TestReleaseAllFreesAndKeepsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	layouts := []string{"base", "fusion", "chain,split:fine,porder:ph,materialize"}
	kept, released := threeSessions(t), threeSessions(t)
	cpus := kept[0].Opt.CPUs
	for _, ss := range [][]*Session{kept, released} {
		if err := MeasureAll(ss, layouts, cpus, 2); err != nil {
			t.Fatal(err)
		}
	}

	// Reach the fused cell's three values once per side, so both sides'
	// counters see the same calls.
	type fused struct {
		m *Measure
		l *program.Layout
		i *codegen.Image
	}
	reach := func(s *Session) fused {
		m, err := s.Measure("fusion", cpus)
		if err != nil {
			t.Fatal(err)
		}
		l, err := s.Layout("fusion")
		if err != nil {
			t.Fatal(err)
		}
		img := s.AppImageFor("fusion")
		if img == s.src.appImg {
			t.Fatal("the fused layout runs over the shared image, want a specialized copy")
		}
		return fused{m, l, img}
	}
	want := reach(kept[0])
	got := reach(released[0])
	wm, wl, wi := weak.Make(got.m), weak.Make(got.l), weak.Make(got.i)
	got = fused{}

	ReleaseAll(released, layouts, cpus)
	runtime.GC()
	if wm.Value() != nil || wl.Value() != nil || wi.Value() != nil {
		t.Errorf("after release and GC: Measure live %t, layout live %t, specialized image live %t; want all collected",
			wm.Value() != nil, wl.Value() != nil, wi.Value() != nil)
	}
	for i := range kept {
		if a, b := kept[i].MemoStats(), released[i].MemoStats(); a != b {
			t.Errorf("session %d: memo stats %+v after release, %+v without", i, b, a)
		}
	}

	before := released[0].MemoStats()
	again, err := released[0].Measure("fusion", cpus)
	if err != nil {
		t.Fatal(err)
	}
	after := released[0].MemoStats()
	if after.Measure.Misses != before.Measure.Misses+1 || after.Measure.Hits != before.Measure.Hits ||
		after.Measure.Entries != before.Measure.Entries {
		t.Errorf("re-measuring a released cell: measure memo %+v → %+v, want exactly one more miss", before.Measure, after.Measure)
	}
	if after.Layout.Misses != before.Layout.Misses+1 {
		t.Errorf("re-measuring a released cell: layout memo %+v → %+v, want its layout rebuilt once", before.Layout, after.Layout)
	}
	if !reflect.DeepEqual(again, want.m) {
		t.Errorf("re-measured Measure differs from the unreleased one:\n  %+v\n  %+v", again.Res, want.m.Res)
	}
	if l, _ := released[0].Layout("fusion"); !reflect.DeepEqual(l, want.l) {
		t.Error("rebuilt fused layout differs from the unreleased one")
	}

	t.Run("in flight", func(t *testing.T) {
		var m memo[string, int]
		started, finish := make(chan struct{}), make(chan struct{})
		var finished atomic.Bool
		waiter := make(chan int)
		go func() {
			v, _ := m.get("k", func() (int, error) {
				close(started)
				<-finish
				finished.Store(true)
				return 7, nil
			})
			waiter <- v
		}()
		<-started
		go func() { // a caller already waiting on the build still gets its value
			v, _ := m.get("k", nil)
			waiter <- v
		}()
		for m.counters().Hits == 0 {
			time.Sleep(time.Millisecond)
		}
		done := make(chan struct{})
		go func() {
			m.release("k")
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("release returned while the build was in flight")
		case <-time.After(20 * time.Millisecond):
		}
		close(finish)
		<-done
		if !finished.Load() {
			t.Fatal("release returned before the build finished")
		}
		for i := 0; i < 2; i++ {
			if v := <-waiter; v != 7 {
				t.Errorf("caller of the in-flight build got %d, want 7", v)
			}
		}
		if v, _ := m.get("k", func() (int, error) { return 8, nil }); v != 8 {
			t.Errorf("get after release = %d, want a rebuild", v)
		}
		if c := m.counters(); c != (MemoCounters{Hits: 1, Misses: 2, Entries: 1}) {
			t.Errorf("counters %+v, want 1 hit, 2 misses, 1 entry", c)
		}
	})
}
