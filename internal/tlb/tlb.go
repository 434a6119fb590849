// Package tlb simulates the instruction TLB. The paper's base configuration
// is a 64-entry fully associative iTLB with 8 KB pages (Figure 14); the
// 21164 hardware results use a 48-entry iTLB.
package tlb

import (
	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

// TLB is a fully associative, LRU translation buffer at page granularity.
type TLB struct {
	Entries int

	slots    map[uint64]*node
	head     *node // most recent
	tail     *node // least recent
	free     []*node
	Accesses uint64
	Misses   uint64
}

type node struct {
	page       uint64
	prev, next *node
}

// New creates a TLB with the given number of entries.
func New(entries int) *TLB {
	t := &TLB{Entries: entries, slots: make(map[uint64]*node, entries)}
	return t
}

// Fetch implements trace.Sink: every page the run touches is translated.
// A repeat access to the most recently used page — the common case — is a
// hit that leaves the LRU order as it is, so it skips the lookup.
func (t *TLB) Fetch(r trace.FetchRun) {
	first := r.Addr / isa.PageBytes
	last := (r.End() - 1) / isa.PageBytes
	for pg := first; pg <= last; pg++ {
		t.Accesses++
		if t.head != nil && t.head.page == pg {
			continue
		}
		t.translate(pg)
	}
}

// Translate records a translation of the page containing addr.
func (t *TLB) Translate(addr uint64) bool {
	t.Accesses++
	return t.translate(addr / isa.PageBytes)
}

func (t *TLB) translate(pg uint64) bool {
	if n, ok := t.slots[pg]; ok {
		t.touch(n)
		return true
	}
	t.Misses++
	var n *node
	if len(t.slots) >= t.Entries {
		n = t.tail
		t.unlink(n)
		delete(t.slots, n.page)
	} else if len(t.free) > 0 {
		n = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	} else {
		n = &node{}
	}
	n.page = pg
	t.slots[pg] = n
	t.pushFront(n)
	return false
}

func (t *TLB) touch(n *node) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}

func (t *TLB) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *TLB) pushFront(n *node) {
	n.next = t.head
	n.prev = nil
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

// MissRate returns misses per translation.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
