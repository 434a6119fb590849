// Package tlb simulates the instruction TLB. The paper's base configuration
// is a 64-entry fully associative iTLB with 8 KB pages (Figure 14); the
// 21164 hardware results use a 48-entry iTLB.
package tlb

import (
	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

// TLB is a fully associative, LRU translation buffer at page granularity.
//
// Its pages are one LRU stack, most recent first, and it counts each hit by
// its depth in the stack. A fully associative LRU buffer of n entries holds
// exactly the n most recently used pages (Mattson et al.'s stack property),
// so a hit at depth d is a miss for every smaller buffer of n ≤ d entries:
// one TLB answers MissesAt for every size up to its own.
type TLB struct {
	Accesses uint64
	Misses   uint64

	stack []uint64 // page + 1, most recent first; 0 = empty
	depth []uint64 // depth[d]: hits on the page at stack[d], d ≥ 1
}

// New creates a TLB with the given number of entries, at least one.
func New(entries int) *TLB {
	return &TLB{stack: make([]uint64, entries), depth: make([]uint64, entries)}
}

// Reset empties t and zeroes its counts, leaving it equal to what New
// returns for its size.
func (t *TLB) Reset() {
	t.Accesses, t.Misses = 0, 0
	clear(t.stack)
	clear(t.depth)
}

// Fetch implements trace.Sink: every page the run touches is translated.
// A repeat access to the most recently used page — the common case — is a
// hit that leaves the stack as it is, so it skips the search.
func (t *TLB) Fetch(r trace.FetchRun) {
	for pg, last := r.Addr/isa.PageBytes, (r.End()-1)/isa.PageBytes; pg <= last; pg++ {
		t.Accesses++
		if t.stack[0] != pg+1 {
			t.translate(pg + 1)
		}
	}
}

// translate moves tag to the top of the stack. An empty slot holds 0, which
// no tag equals, so a miss searches the whole stack and then drops its
// bottom slot: the least recently used page, or an empty slot.
func (t *TLB) translate(tag uint64) {
	d := 1
	for d < len(t.stack) && t.stack[d] != tag {
		d++
	}
	if d < len(t.stack) {
		t.depth[d]++
	} else {
		t.Misses++
		d--
	}
	copy(t.stack[1:d+1], t.stack[:d])
	t.stack[0] = tag
}

// MissesAt returns the misses a TLB of entries entries, 1 ≤ entries ≤ the
// size t was made with, takes on the same translations.
func (t *TLB) MissesAt(entries int) uint64 {
	n := t.Misses
	for _, hits := range t.depth[entries:] {
		n += hits
	}
	return n
}
