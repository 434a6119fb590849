package expt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getAll calls m.get(key, build) from n goroutines released together and
// returns every caller's result.
func getAll(m *memo[string, int], n int, key string, build func() (int, error)) ([]int, []error) {
	vals, errs := make([]int, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = m.get(key, build)
		}(i)
	}
	close(start)
	wg.Wait()
	return vals, errs
}

func TestMemoSingleFlight(t *testing.T) {
	var m memo[string, int]
	var builds atomic.Int32
	vals, errs := getAll(&m, 32, "k", func() (int, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the build open so callers pile up behind it
		return 42, nil
	})
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for i := range vals {
		if vals[i] != 42 || errs[i] != nil {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
	if c := m.counters(); c.Misses != 1 || c.Hits != 31 || c.Entries != 1 {
		t.Fatalf("counters = %+v, want 31 hits, 1 miss, 1 entry", c)
	}
}

func TestMemoMemoizesErrors(t *testing.T) {
	var m memo[string, int]
	boom := errors.New("boom")
	var builds atomic.Int32
	build := func() (int, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond)
		return 0, boom
	}
	_, errs := getAll(&m, 8, "k", build)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d got %v, want the build's error", i, err)
		}
	}
	if _, err := m.get("k", build); !errors.Is(err, boom) {
		t.Fatalf("later call got %v, want the memoized error", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failing build ran %d times, want 1 (errors are memoized)", n)
	}
	if c := m.counters(); c.Misses != 1 || c.Hits+c.Misses != 9 {
		t.Fatalf("counters = %+v, want 1 miss and hits+misses == 9 calls", c)
	}
}

// TestMemoDistinctKeysBuildConcurrently proves no lock is held across build:
// each build waits for the other to have started, which deadlocks under a
// memo that serializes builds.
func TestMemoDistinctKeysBuildConcurrently(t *testing.T) {
	var m memo[string, int]
	started := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{})}
	build := func(self, other string) func() (int, error) {
		return func() (int, error) {
			close(started[self])
			select {
			case <-started[other]:
				return len(self), nil
			case <-time.After(5 * time.Second):
				return 0, errors.New("the other key's build never started: builds are serialized")
			}
		}
	}
	var wg sync.WaitGroup
	for _, k := range [][2]string{{"a", "b"}, {"b", "a"}} {
		wg.Add(1)
		go func(self, other string) {
			defer wg.Done()
			if _, err := m.get(self, build(self, other)); err != nil {
				t.Error(err)
			}
		}(k[0], k[1])
	}
	wg.Wait()
	if c := m.counters(); c.Misses != 2 || c.Hits != 0 || c.Entries != 2 {
		t.Fatalf("counters = %+v, want 2 misses over 2 entries", c)
	}
}

// TestMemoAbortedBuildReleasesWaiters covers a build that never returns (a
// panic, or t.Fatal inside a test's build): waiters must get an error, not
// hang and not a zero value with a nil error.
func TestMemoAbortedBuildReleasesWaiters(t *testing.T) {
	var m memo[string, int]
	func() {
		defer func() { _ = recover() }()
		_, _ = m.get("k", func() (int, error) { panic("build blew up") })
	}()
	if _, err := m.get("k", func() (int, error) { return 1, nil }); !errors.Is(err, errBuildAborted) {
		t.Fatalf("call after an aborted build got %v, want errBuildAborted", err)
	}
}

// TestLayoutBuildSingleFlight is the session-level pin of the same rule:
// concurrent requests for one new layout run the pipeline once.
func TestLayoutBuildSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a quick session twice")
	}
	misses := func(callers int) uint64 {
		s, err := NewSession(QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Layout("all"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		ms := s.MemoStats()
		if got := ms.Layout.Hits + ms.Layout.Misses; got != uint64(callers) {
			t.Errorf("%d callers: layout hits+misses = %d", callers, got)
		}
		if ms.Train.Misses != 1 {
			t.Errorf("%d callers: %d training runs, want 1", callers, ms.Train.Misses)
		}
		return ms.Layout.Misses
	}
	serial, parallel := misses(1), misses(8)
	if serial != 1 || parallel != serial {
		t.Fatalf("Layout.Misses: serial %d, 8 concurrent callers %d; want 1 and 1", serial, parallel)
	}
}
