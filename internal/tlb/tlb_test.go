package tlb_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/isa"
	"codelayout/internal/tlb"
	"codelayout/internal/trace"
)

func pageRun(page uint64, cpu uint8) trace.FetchRun {
	return trace.FetchRun{Addr: page * isa.PageBytes, Words: 4, CPU: cpu}
}

func TestTLBHitsAndMisses(t *testing.T) {
	tb := tlb.New(4)
	for p := uint64(0); p < 4; p++ {
		tb.Fetch(pageRun(p, 0))
	}
	if tb.Misses != 4 {
		t.Fatalf("cold misses = %d", tb.Misses)
	}
	for p := uint64(0); p < 4; p++ {
		tb.Fetch(pageRun(p, 0))
	}
	if tb.Misses != 4 {
		t.Fatalf("warm misses = %d", tb.Misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := tlb.New(2)
	tb.Fetch(pageRun(1, 0))
	tb.Fetch(pageRun(2, 0))
	tb.Fetch(pageRun(1, 0)) // 1 most recent
	tb.Fetch(pageRun(3, 0)) // evicts 2
	m := tb.Misses
	tb.Fetch(pageRun(1, 0))
	if tb.Misses != m {
		t.Fatal("page 1 evicted, LRU broken")
	}
	tb.Fetch(pageRun(2, 0))
	if tb.Misses != m+1 {
		t.Fatal("page 2 should have been evicted")
	}
}

func TestTLBRunCrossingPages(t *testing.T) {
	tb := tlb.New(8)
	r := trace.FetchRun{Addr: isa.PageBytes - 8, Words: 4, CPU: 0}
	tb.Fetch(r) // crosses from page 0 into page 1
	if tb.Misses != 2 {
		t.Fatalf("misses = %d, want 2", tb.Misses)
	}
}

func TestTLBFastPathExactness(t *testing.T) {
	// The most-recent-page fast path must not change miss counts compared
	// to a reference simulation without it. Compare against a simple map
	// LRU reimplementation.
	r := rand.New(rand.NewSource(5))
	tb := tlb.New(8)

	type ref struct {
		pages map[uint64]int
		tick  int
	}
	rf := ref{pages: make(map[uint64]int)}
	refMisses := 0
	translate := func(pg uint64) {
		rf.tick++
		if _, ok := rf.pages[pg]; ok {
			rf.pages[pg] = rf.tick
			return
		}
		refMisses++
		if len(rf.pages) >= 8 {
			var lruPg uint64
			lru := 1 << 60
			for p, at := range rf.pages {
				if at < lru {
					lru = at
					lruPg = p
				}
			}
			delete(rf.pages, lruPg)
		}
		rf.pages[pg] = rf.tick
	}

	for i := 0; i < 5000; i++ {
		pg := uint64(r.Intn(12))
		words := int32(1 + r.Intn(8))
		fr := trace.FetchRun{Addr: pg*isa.PageBytes + uint64(r.Intn(1024)*4), Words: words, CPU: 0}
		tb.Fetch(fr)
		first := fr.Addr / isa.PageBytes
		last := (fr.End() - 1) / isa.PageBytes
		for p := first; p <= last; p++ {
			translate(p)
		}
	}
	if int(tb.Misses) != refMisses {
		t.Fatalf("tlb misses %d != reference %d", tb.Misses, refMisses)
	}
}

func TestTLBMissRate(t *testing.T) {
	tb := tlb.New(2)
	tb.Fetch(pageRun(0, 0))
	tb.Fetch(pageRun(0, 0))
	if got := tb.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %f", got)
	}
}

// refTLB is the reference the TLB is checked against: the resident pages in
// a slice, least recently used first, one translation per page a run
// touches. It has no fast path and shares no code with TLB.
type refTLB struct {
	entries          int
	pages            []uint64
	accesses, misses uint64
}

func (t *refTLB) translate(pg uint64) {
	t.accesses++
	for i, p := range t.pages {
		if p == pg {
			t.pages = append(append(t.pages[:i:i], t.pages[i+1:]...), pg)
			return
		}
	}
	t.misses++
	if len(t.pages) == t.entries {
		t.pages = t.pages[1:]
	}
	t.pages = append(t.pages, pg)
}

// TestTLBMatchesReferenceList drives a TLB and the reference with random
// references — short runs that mostly stay on the page of the one before
// (the fast path), runs that cross one page boundary or several, from four
// CPUs, and Translate calls between them — and requires equal access and
// miss counts after every reference.
func TestTLBMatchesReferenceList(t *testing.T) {
	for _, entries := range []int{1, 2, 8, 48, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		tb, ref := tlb.New(entries), &refTLB{entries: entries}
		pages := uint64(2 * entries)
		addr := uint64(0)
		for i := 0; i < 20_000; i++ {
			if rng.Intn(4) == 0 {
				addr = uint64(rng.Int63n(int64(pages*isa.PageBytes/isa.WordBytes))) * isa.WordBytes
			}
			if rng.Intn(10) == 0 {
				tb.Translate(addr)
				ref.translate(addr / isa.PageBytes)
			} else {
				words := int32(1 + rng.Intn(40))
				if rng.Intn(50) == 0 {
					words = int32(rng.Intn(3 * isa.PageBytes / isa.WordBytes))
				}
				r := trace.FetchRun{Addr: addr, Words: max(words, 1), CPU: uint8(rng.Intn(4))}
				tb.Fetch(r)
				for pg := r.Addr / isa.PageBytes; pg <= (r.End()-1)/isa.PageBytes; pg++ {
					ref.translate(pg)
				}
				addr = r.End()
			}
			if tb.Accesses != ref.accesses || tb.Misses != ref.misses {
				t.Fatalf("%d entries, reference %d: tlb %d misses of %d, reference %d of %d",
					entries, i, tb.Misses, tb.Accesses, ref.misses, ref.accesses)
			}
		}
		if ref.misses == 0 || ref.misses == ref.accesses {
			t.Errorf("%d entries: %d misses of %d; the stream does not exercise replacement", entries, ref.misses, ref.accesses)
		}
	}
}
