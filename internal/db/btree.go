package db

import (
	"encoding/binary"
	"fmt"
)

// B+tree node layout on a raw page:
//
//	0  u16 kind (1 = leaf, 2 = inner)
//	2  u16 nkeys
//	4  u32 right sibling (leaves; InvalidPage otherwise)
//	8  entries:
//	   leaf:  nkeys × (key u64, val u64)
//	   inner: child0 u32, then nkeys × (key u64, child u32)
//
// Inner key semantics: subtree child[i] holds keys < key[i]; child[nkeys]
// holds the rest.
const (
	nodeLeaf  = 1
	nodeInner = 2

	btHdr      = 8
	leafEntry  = 16
	innerEntry = 12
	// Conservative capacities leaving headroom for the header.
	leafCap  = (PageBytes - btHdr) / leafEntry
	innerCap = (PageBytes - btHdr - 4) / innerEntry
)

// BTree is a B+tree index over uint64 keys and values.
type BTree struct {
	Name   string
	eng    *Engine
	root   PageID
	height int // 1 = root is a leaf
}

func btKind(p *Page) int       { return int(binary.LittleEndian.Uint16(p.Data[0:])) }
func btSetKind(p *Page, k int) { binary.LittleEndian.PutUint16(p.Data[0:], uint16(k)) }
func btN(p *Page) int          { return int(binary.LittleEndian.Uint16(p.Data[2:])) }
func btSetN(p *Page, n int)    { binary.LittleEndian.PutUint16(p.Data[2:], uint16(n)) }

func leafKey(p *Page, i int) uint64 { return binary.LittleEndian.Uint64(p.Data[btHdr+i*leafEntry:]) }
func leafVal(p *Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[btHdr+i*leafEntry+8:])
}
func leafSet(p *Page, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(p.Data[btHdr+i*leafEntry:], k)
	binary.LittleEndian.PutUint64(p.Data[btHdr+i*leafEntry+8:], v)
}

func leafSib(p *Page) PageID { return PageID(binary.LittleEndian.Uint32(p.Data[4:])) }
func leafSetSib(p *Page, id PageID) {
	binary.LittleEndian.PutUint32(p.Data[4:], uint32(id))
}

func innerChild(p *Page, i int) PageID {
	if i == 0 {
		return PageID(binary.LittleEndian.Uint32(p.Data[btHdr:]))
	}
	return PageID(binary.LittleEndian.Uint32(p.Data[btHdr+4+(i-1)*innerEntry+8:]))
}
func innerKey(p *Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[btHdr+4+i*innerEntry:])
}
func innerSetChild0(p *Page, c PageID) {
	binary.LittleEndian.PutUint32(p.Data[btHdr:], uint32(c))
}
func innerSet(p *Page, i int, k uint64, child PageID) {
	binary.LittleEndian.PutUint64(p.Data[btHdr+4+i*innerEntry:], k)
	binary.LittleEndian.PutUint32(p.Data[btHdr+4+i*innerEntry+8:], uint32(child))
}

// CreateBTree allocates an empty index and registers it by name. A name
// already in the catalog panics, as in CreateTable.
func (e *Engine) CreateBTree(name string) *BTree {
	if _, dup := e.btrees[name]; dup {
		panic(fmt.Sprintf("db: shard %d: B-tree %q created twice", e.Shard, name))
	}
	root := e.AllocPage()
	pg, _, err := e.Pool.get(root)
	if err != nil {
		panic(err)
	}
	btSetKind(pg, nodeLeaf)
	btSetN(pg, 0)
	leafSetSib(pg, InvalidPage)
	pg.Dirty = true
	e.Pool.Unpin(pg)
	t := &BTree{Name: name, eng: e, root: root, height: 1}
	e.btrees[name] = t
	return t
}

// Height returns the current tree height (1 = single leaf).
func (t *BTree) Height() int { return t.height }

// Search finds the value for key. Instrumented: the descent loop, the
// per-node binary search steps and the final hit/miss are all reported, so
// the emitted instruction stream tracks the real data-dependent work.
func (t *BTree) Search(s *Session, key uint64) (uint64, bool) {
	s.PB.Enter("bt_search")
	defer s.PB.Leave("bt_search")
	s.BeginCritical()
	defer s.EndCritical()
	pgID := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		s.PB.Branch("bt_descend", true)
		node := s.BufGet(pgID)
		idx := t.innerSearch(s, node, key)
		pgID = innerChild(node, idx)
		s.Unpin(node)
	}
	s.PB.Branch("bt_descend", false)
	leaf := s.BufGet(pgID)
	idx, found := t.leafSearch(s, leaf, key)
	var val uint64
	if found {
		val = leafVal(leaf, idx)
		s.PB.Data(PageAddr(pgID)+uint64(btHdr+idx*leafEntry), leafEntry, false)
	}
	s.Unpin(leaf)
	s.PB.Branch("bt_found", found)
	return val, found
}

// ScanRange visits every key in [lo, hi] in ascending order, following the
// leaf sibling chain, and calls fn for each entry; fn returning false stops
// the scan. It returns the number of entries visited. Instrumented: the
// descent, the per-leaf positioning and every iterate/leaf-hop step are
// reported, so range scans contribute their real data-dependent work to the
// emitted instruction stream.
func (t *BTree) ScanRange(s *Session, lo, hi uint64, fn func(key, val uint64) bool) int {
	s.PB.Enter("bt_range")
	defer s.PB.Leave("bt_range")
	s.BeginCritical()
	defer s.EndCritical()
	pgID := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		s.PB.Branch("btr_descend", true)
		node := s.BufGet(pgID)
		idx := t.innerSearch(s, node, lo)
		pgID = innerChild(node, idx)
		s.Unpin(node)
	}
	s.PB.Branch("btr_descend", false)
	leaf := s.BufGet(pgID)
	idx, _ := t.leafSearch(s, leaf, lo)
	n := 0
	for {
		if idx < btN(leaf) && leafKey(leaf, idx) <= hi {
			s.PB.Branch("btr_iter", true)
			s.PB.Branch("btr_hop", false)
			s.PB.Data(PageAddr(leaf.ID)+uint64(btHdr+idx*leafEntry), leafEntry, false)
			key, val := leafKey(leaf, idx), leafVal(leaf, idx)
			idx++
			n++
			if !fn(key, val) {
				break
			}
			continue
		}
		if idx >= btN(leaf) {
			if sib := leafSib(leaf); sib != InvalidPage {
				s.PB.Branch("btr_iter", true)
				s.PB.Branch("btr_hop", true)
				s.Unpin(leaf)
				leaf = s.BufGet(sib)
				idx = 0
				continue
			}
		}
		break
	}
	s.PB.Branch("btr_iter", false)
	s.Unpin(leaf)
	return n
}

// innerSearch returns the child index to descend into, reporting each
// binary-search step at site "bt_scan".
func (t *BTree) innerSearch(s *Session, node *Page, key uint64) int {
	n := btN(node)
	lo, hi := 0, n // child index in [0, n]
	for lo < hi {
		s.PB.Branch("bt_scan", true)
		mid := (lo + hi) / 2
		s.PB.Data(PageAddr(node.ID)+uint64(btHdr+4+mid*innerEntry), 8, false)
		if key < innerKey(node, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.PB.Branch("bt_scan", false)
	return lo
}

// leafSearch binary-searches the leaf, reporting steps at site "bt_leaf".
func (t *BTree) leafSearch(s *Session, leaf *Page, key uint64) (int, bool) {
	n := btN(leaf)
	lo, hi := 0, n
	for lo < hi {
		s.PB.Branch("bt_leaf", true)
		mid := (lo + hi) / 2
		s.PB.Data(PageAddr(leaf.ID)+uint64(btHdr+mid*leafEntry), 8, false)
		if leafKey(leaf, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.PB.Branch("bt_leaf", false)
	return lo, lo < n && leafKey(leaf, lo) == key
}

// Insert adds key→val, splitting as needed. Keys must be unique; inserting
// an existing key overwrites its value.
func (t *BTree) Insert(s *Session, key, val uint64) error {
	s.PB.Enter("bt_insert")
	defer s.PB.Leave("bt_insert")
	s.BeginCritical()
	defer s.EndCritical()
	promoted, newChild, err := t.insertAt(s, t.root, t.height, key, val)
	if err != nil {
		return err
	}
	s.PB.Branch("bt_grow", newChild != InvalidPage)
	if newChild != InvalidPage {
		// Root split: new root with two children.
		newRoot := t.eng.AllocPage()
		pg := s.bufGetQuiet(newRoot)
		btSetKind(pg, nodeInner)
		btSetN(pg, 1)
		innerSetChild0(pg, t.root)
		innerSet(pg, 0, promoted, newChild)
		pg.Dirty = true
		s.Unpin(pg)
		t.root = newRoot
		t.height++
	}
	return nil
}

// insertAt descends to the leaf, inserting and splitting bottom-up. It
// returns (promotedKey, newRightSibling) when the node at this level split.
func (t *BTree) insertAt(s *Session, pgID PageID, lvl int, key, val uint64) (uint64, PageID, error) {
	node := s.bufGetQuiet(pgID)
	defer s.Unpin(node)
	if lvl == 1 {
		return t.leafInsert(s, node, key, val)
	}
	idx := quietInnerSearch(node, key)
	child := innerChild(node, idx)
	promoted, newChild, err := t.insertAt(s, child, lvl-1, key, val)
	if err != nil || newChild == InvalidPage {
		return 0, InvalidPage, err
	}
	return t.innerInsert(s, node, idx, promoted, newChild)
}

func quietInnerSearch(node *Page, key uint64) int {
	n := btN(node)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if key < innerKey(node, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (t *BTree) leafInsert(s *Session, leaf *Page, key, val uint64) (uint64, PageID, error) {
	n := btN(leaf)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(leaf, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && leafKey(leaf, lo) == key {
		leafSet(leaf, lo, key, val)
		leaf.Dirty = true
		return 0, InvalidPage, nil
	}
	if n < leafCap {
		shiftLeaf(leaf, lo, n)
		leafSet(leaf, lo, key, val)
		btSetN(leaf, n+1)
		leaf.Dirty = true
		return 0, InvalidPage, nil
	}
	// Split: right half moves to a new leaf.
	rightID := t.eng.AllocPage()
	right := s.bufGetQuiet(rightID)
	defer s.Unpin(right)
	btSetKind(right, nodeLeaf)
	leafSetSib(right, leafSib(leaf))
	leafSetSib(leaf, rightID)
	mid := n / 2
	for i := mid; i < n; i++ {
		leafSet(right, i-mid, leafKey(leaf, i), leafVal(leaf, i))
	}
	btSetN(right, n-mid)
	btSetN(leaf, mid)
	leaf.Dirty = true
	right.Dirty = true
	// Insert into the proper half.
	target, tn := leaf, mid
	off := lo
	if lo > mid {
		target, tn = right, n-mid
		off = lo - mid
	}
	shiftLeaf(target, off, tn)
	leafSet(target, off, key, val)
	btSetN(target, tn+1)
	target.Dirty = true
	return leafKey(right, 0), rightID, nil
}

func shiftLeaf(leaf *Page, at, n int) {
	copy(leaf.Data[btHdr+(at+1)*leafEntry:btHdr+(n+1)*leafEntry],
		leaf.Data[btHdr+at*leafEntry:btHdr+n*leafEntry])
}

func (t *BTree) innerInsert(s *Session, node *Page, idx int, key uint64, child PageID) (uint64, PageID, error) {
	n := btN(node)
	if n < innerCap {
		// Shift entries right of idx.
		copy(node.Data[btHdr+4+(idx+1)*innerEntry:btHdr+4+(n+1)*innerEntry],
			node.Data[btHdr+4+idx*innerEntry:btHdr+4+n*innerEntry])
		innerSet(node, idx, key, child)
		btSetN(node, n+1)
		node.Dirty = true
		return 0, InvalidPage, nil
	}
	// Split the inner node. Collect entries including the new one, then
	// redistribute around the median.
	type entry struct {
		k uint64
		c PageID
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{innerKey(node, i), innerChild(node, i+1)})
	}
	entries = append(entries[:idx], append([]entry{{key, child}}, entries[idx:]...)...)
	midIdx := len(entries) / 2
	promote := entries[midIdx]

	rightID := t.eng.AllocPage()
	right := s.bufGetQuiet(rightID)
	defer s.Unpin(right)
	btSetKind(right, nodeInner)
	innerSetChild0(right, promote.c)
	rn := 0
	for _, e := range entries[midIdx+1:] {
		innerSet(right, rn, e.k, e.c)
		rn++
	}
	btSetN(right, rn)
	right.Dirty = true

	btSetN(node, midIdx)
	ln := 0
	for _, e := range entries[:midIdx] {
		innerSet(node, ln, e.k, e.c)
		ln++
	}
	node.Dirty = true
	return promote.k, rightID, nil
}

// Validate checks B+tree invariants (sorted keys, consistent heights,
// children key ranges, an intact leaf sibling chain). Used by tests.
func (t *BTree) Validate(s *Session) error {
	var minKey, maxKey uint64 = 0, ^uint64(0)
	total, err := t.validateNode(s, t.root, t.height, minKey, maxKey)
	if err != nil {
		return err
	}
	return t.validateChain(s, total)
}

// validateChain walks the leaf sibling chain from the leftmost leaf and
// checks that it visits every key, in ascending order.
func (t *BTree) validateChain(s *Session, want int) error {
	pgID := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		node := s.bufGetQuiet(pgID)
		pgID = innerChild(node, 0)
		s.Unpin(node)
	}
	seen := 0
	last, any := uint64(0), false
	for pgID != InvalidPage {
		leaf := s.bufGetQuiet(pgID)
		for i := 0; i < btN(leaf); i++ {
			k := leafKey(leaf, i)
			if any && k <= last {
				s.Unpin(leaf)
				return fmt.Errorf("btree %s: sibling chain out of order at key %d", t.Name, k)
			}
			last, any = k, true
			seen++
		}
		pgID = leafSib(leaf)
		s.Unpin(leaf)
	}
	if seen != want {
		return fmt.Errorf("btree %s: sibling chain sees %d keys, tree holds %d", t.Name, seen, want)
	}
	return nil
}

func (t *BTree) validateNode(s *Session, pgID PageID, lvl int, lo, hi uint64) (int, error) {
	node := s.bufGetQuiet(pgID)
	defer s.Unpin(node)
	n := btN(node)
	if lvl == 1 {
		if btKind(node) != nodeLeaf {
			return 0, fmt.Errorf("btree %s: page %d should be leaf", t.Name, pgID)
		}
		for i := 0; i < n; i++ {
			k := leafKey(node, i)
			if i > 0 && leafKey(node, i-1) >= k {
				return 0, fmt.Errorf("btree %s: leaf %d keys out of order", t.Name, pgID)
			}
			if k < lo || k > hi {
				return 0, fmt.Errorf("btree %s: leaf %d key %d outside [%d,%d]", t.Name, pgID, k, lo, hi)
			}
		}
		return n, nil
	}
	if btKind(node) != nodeInner {
		return 0, fmt.Errorf("btree %s: page %d should be inner", t.Name, pgID)
	}
	total := 0
	for i := 0; i <= n; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = innerKey(node, i-1)
		}
		if i < n {
			k := innerKey(node, i)
			if k == 0 {
				return 0, fmt.Errorf("btree %s: inner %d zero key", t.Name, pgID)
			}
			chi = k - 1
		}
		cnt, err := t.validateNode(s, innerChild(node, i), lvl-1, clo, chi)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	return total, nil
}

// Count returns the number of keys (tests).
func (t *BTree) Count(s *Session) int {
	n, _ := t.validateNode(s, t.root, t.height, 0, ^uint64(0))
	return n
}
