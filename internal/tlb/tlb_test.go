package tlb_test

import (
	"fmt"
	"math/rand"
	"reflect"
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

// refSizes is one reference list of every size from 1 to entries.
type refSizes []*refTLB

func newRefSizes(entries int) refSizes {
	refs := make(refSizes, entries)
	for i := range refs {
		refs[i] = &refTLB{entries: i + 1}
	}
	return refs
}

// fetch translates every page r touches in every list.
func (refs refSizes) fetch(r trace.FetchRun) {
	for pg := r.Addr / isa.PageBytes; pg <= (r.End()-1)/isa.PageBytes; pg++ {
		for _, ref := range refs {
			ref.translate(pg)
		}
	}
}

// check reports the first size whose reference list disagrees with tb: on
// accesses and misses at tb's own size, on MissesAt below it.
func (refs refSizes) check(tb *tlb.TLB) error {
	if own := refs[len(refs)-1]; tb.Accesses != own.accesses || tb.Misses != own.misses {
		return fmt.Errorf("%d entries: tlb %d misses of %d, reference %d of %d", own.entries, tb.Misses, tb.Accesses, own.misses, own.accesses)
	}
	for _, ref := range refs {
		if got := tb.MissesAt(ref.entries); got != ref.misses {
			return fmt.Errorf("MissesAt(%d) = %d, a %d-entry reference list took %d", ref.entries, got, ref.entries, ref.misses)
		}
	}
	return nil
}

// TestTLBMatchesReferenceList drives one 64-entry TLB and a reference list
// of every size from 1 to 64 with random runs — short ones that mostly stay
// on the page of the one before (the fast path), and ones that cross one page
// boundary or several — over working sets smaller than, near and beyond 64
// pages. After every run the TLB's own accesses and misses equal the 64-entry
// list's, and MissesAt(n) equals the n-entry list's misses for every n.
func TestTLBMatchesReferenceList(t *testing.T) {
	for _, pages := range []uint64{6, 50, 70, 160} {
		rng := rand.New(rand.NewSource(int64(pages)))
		tb, refs := tlb.New(64), newRefSizes(64)
		addr := uint64(0)
		for i := 0; i < 10_000; i++ {
			if rng.Intn(4) == 0 {
				addr = uint64(rng.Int63n(int64(pages*isa.PageBytes/isa.WordBytes))) * isa.WordBytes
			}
			words := int32(1 + rng.Intn(40))
			if rng.Intn(50) == 0 {
				words = int32(1 + rng.Intn(3*isa.PageBytes/isa.WordBytes))
			}
			r := trace.FetchRun{Addr: addr, Words: words}
			tb.Fetch(r)
			refs.fetch(r)
			addr = r.End()
			if err := refs.check(tb); err != nil {
				t.Fatalf("%d pages, run %d: %v", pages, i, err)
			}
		}
		for _, ref := range refs {
			if ref.entries < int(pages) && (ref.misses <= pages || ref.misses == ref.accesses) {
				t.Errorf("%d pages, %d entries: %d misses of %d; the stream does not exercise replacement", pages, ref.entries, ref.misses, ref.accesses)
			}
		}
	}
}

// FuzzTLB: for any TLB size and any runs — three bytes each: a page among 64,
// an offset into it, and a length of up to 251 words or of several pages —
// the TLB agrees after every run with a reference list of every size up to
// its own. A second TLB, reset after as many quarters of the runs as the top
// two bits of size say, equals a new one then, and again once both have
// taken the runs after the reset.
func FuzzTLB(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 0, 0, 1, 3, 0, 1, 2, 0, 1})
	f.Add(uint8(0), []byte{5, 255, 200, 5, 255, 255, 6, 0, 1})
	f.Add(uint8(63), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 60, 61, 62, 63, 0, 252})
	f.Add(uint8(3<<6|3), []byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 0, 0, 1, 3, 0, 1, 2, 0, 1}) // reset after the hit on page 0
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		entries := 1 + int(size)%64
		var runs []trace.FetchRun
		for i := 0; i+3 <= len(data) && i < 3*512; i += 3 {
			words := int32(data[i+2]) + 1
			if data[i+2] > 251 {
				words = int32(data[i+2]-251) * isa.PageBytes / isa.WordBytes
			}
			runs = append(runs, trace.FetchRun{Addr: uint64(data[i]%64)*isa.PageBytes + uint64(data[i+1])*isa.PageBytes/256, Words: words})
		}
		tb, refs := tlb.New(entries), newRefSizes(entries)
		for i, r := range runs {
			tb.Fetch(r)
			refs.fetch(r)
			if err := refs.check(tb); err != nil {
				t.Fatalf("run %d %+v: %v", i, r, err)
			}
		}
		cut := len(runs) * int(size>>6) / 4
		used, fresh := tlb.New(entries), tlb.New(entries)
		for _, r := range runs[:cut] {
			used.Fetch(r)
		}
		used.Reset()
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("reset after %d of %d runs: %+v, a new TLB %+v", cut, len(runs), used, fresh)
		}
		for _, r := range runs[cut:] {
			used.Fetch(r)
			fresh.Fetch(r)
		}
		if !reflect.DeepEqual(used, fresh) {
			t.Fatalf("reset after %d of %d runs: the rest reads %+v, on a new TLB %+v", cut, len(runs), used, fresh)
		}
	})
}
