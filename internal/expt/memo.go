package expt

import (
	"errors"
	"sync"
)

var errBuildAborted = errors.New("expt: memoized build did not complete")

// MemoCounters reports one memo's traffic: Hits answered without executing
// anything, Misses that executed real work (a simulation run, a layout
// build, a training run), and Entries, the keys the memo has seen — released
// or not. One rule for every memo: each call is exactly one hit or one miss,
// the call that executes the build is the miss, and every other call — a
// finished value, a memoized error, or a wait on an in-flight build — is a
// hit. A call for a released key rebuilds it, so it is a miss.
type MemoCounters struct {
	Hits, Misses, Entries uint64
}

// memo is the package's one memoization mechanism: a single-flight cache
// that runs build at most once per key and remembers its value or its error
// until the key is released. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu           sync.Mutex
	entries      map[K]*memoEntry[V] // a released key keeps a nil slot
	hits, misses uint64
}

// memoEntry is one key's slot; done is closed once val and err are final.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// get returns the memoized result for key, running build if no caller has
// yet. Concurrent callers for one key share a single build: the first runs
// it, the others block until it finishes. The lock is never held while build
// runs, so distinct keys build concurrently and build may use other memos
// (or other keys of this one).
func (m *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if e := m.entries[key]; e != nil {
		m.hits++
		m.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	if m.entries == nil {
		m.entries = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()

	// Waiters are released even if build panics or exits its goroutine; they
	// then see errBuildAborted rather than a zero value with a nil error.
	defer close(e.done)
	e.err = errBuildAborted
	e.val, e.err = build()
	return e.val, e.err
}

// release drops key's value (or error) but keeps its slot, so the counters
// read as if it were still held; a later get rebuilds it as a miss. A build
// in flight is waited for first, and callers already waiting on it still
// receive its result. Releasing an unknown or released key does nothing.
func (m *memo[K, V]) release(key K) {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil {
		return
	}
	<-e.done
	m.mu.Lock()
	if m.entries[key] == e {
		m.entries[key] = nil
	}
	m.mu.Unlock()
}

// counters snapshots the memo's traffic.
func (m *memo[K, V]) counters() MemoCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoCounters{Hits: m.hits, Misses: m.misses, Entries: uint64(len(m.entries))}
}
