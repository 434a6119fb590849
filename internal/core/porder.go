package core

import (
	"sort"

	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// PettisHansen orders the hot placement units with the Pettis and Hansen
// procedure ordering algorithm (Figure 2 of the paper): build a weighted
// (undirected) call graph over units — including branch edges between units,
// which fine-grain splitting introduces — then repeatedly collapse the
// heaviest edge, choosing among the four possible merge orientations using
// the weights of the original graph. Cold units keep their original relative
// order and are appended by the caller.
//
// The returned slice is a permutation of the indexes of the hot units in
// placement order.
func PettisHansen(p *program.Program, pf *profile.Profile, units []Unit) []int {
	// Map blocks to unit indexes.
	unitOf := make([]int32, p.NumBlocks())
	for i := range unitOf {
		unitOf[i] = -1
	}
	hotIdx := make([]int, 0, len(units))
	for i, u := range units {
		if !u.Hot {
			continue
		}
		hotIdx = append(hotIdx, i)
		for _, b := range u.Blocks {
			unitOf[b] = int32(i)
		}
	}
	if len(hotIdx) <= 1 {
		return hotIdx
	}

	// Original undirected inter-unit weights.
	type pair struct{ a, b int32 }
	norm := func(a, b int32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	orig := make(map[pair]uint64)
	for _, i := range hotIdx {
		for _, bid := range units[i].Blocks {
			b := p.Block(bid)
			p.SuccEdges(b, func(e program.Edge) {
				w := pf.Edge(e.Src, e.Dst)
				if w == 0 {
					return
				}
				du := unitOf[e.Dst]
				if du < 0 || du == int32(i) {
					return
				}
				orig[norm(int32(i), du)] += w
			})
		}
	}

	// Group state, indexed by unit: each hot unit starts as its own group.
	parent := make([]int32, len(units))
	lists := make([][]int32, len(units))
	adj := make([]map[int32]uint64, len(units))
	for _, i := range hotIdx {
		gi := int32(i)
		parent[gi] = gi
		lists[gi] = []int32{gi}
		adj[gi] = make(map[int32]uint64)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Max-heap of candidate merges with lazy invalidation. before is a total
	// order up to identical entries, so the pop sequence depends on the
	// multiset pushed, never on the order of the pushes.
	h := make(edgeHeap, 0, len(orig))
	for pr, w := range orig {
		adj[pr.a][pr.b] += w
		adj[pr.b][pr.a] += w
		h.push(heapEdge{w: w, a: pr.a, b: pr.b})
	}

	originalWeight := func(a, b int32) uint64 { return orig[norm(a, b)] }

	for len(h) > 0 {
		e := h.pop()
		ga, gb := find(e.a), find(e.b)
		if ga == gb {
			continue
		}
		if w := adj[ga][gb]; w != e.w || w == 0 {
			continue // stale entry
		}
		// Merge gb into ga, choosing the best of the four orientations by
		// the original-graph weight between the junction endpoints.
		L, R := lists[ga], lists[gb]
		type combo struct {
			revL, revR bool
			score      uint64
		}
		combos := [...]combo{
			{false, false, originalWeight(L[len(L)-1], R[0])},
			{false, true, originalWeight(L[len(L)-1], R[len(R)-1])},
			{true, false, originalWeight(L[0], R[0])},
			{true, true, originalWeight(L[0], R[len(R)-1])},
		}
		best := combos[0]
		for _, c := range combos[1:] {
			if c.score > best.score {
				best = c
			}
		}
		if best.revL {
			reverse(L)
		}
		if best.revR {
			reverse(R)
		}
		lists[ga] = append(L, R...)
		lists[gb] = nil
		parent[gb] = ga

		// Fold gb's adjacency into ga's and refresh heap entries. Neighbor
		// keys are always live group representatives: a merged group is
		// deleted from every neighbor right here.
		for gn, w := range adj[gb] {
			if gn == ga {
				continue
			}
			sum := adj[ga][gn] + w
			adj[ga][gn] = sum
			adj[gn][ga] = sum
			delete(adj[gn], gb)
			h.push(heapEdge{w: sum, a: ga, b: gn})
		}
		adj[gb] = nil
		delete(adj[ga], gb)
	}

	// Collect surviving groups; order by total dynamic weight, then by the
	// smallest original unit index for determinism.
	type group struct {
		rep    int32
		weight uint64
		minIdx int32
	}
	var groups []group
	for rep, list := range lists {
		if list == nil {
			continue
		}
		var w uint64
		min := list[0]
		for _, u := range list {
			w += units[u].Count
			if u < min {
				min = u
			}
		}
		groups = append(groups, group{int32(rep), w, min})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].weight != groups[j].weight {
			return groups[i].weight > groups[j].weight
		}
		return groups[i].minIdx < groups[j].minIdx
	})
	var order []int
	for _, g := range groups {
		for _, u := range lists[g.rep] {
			order = append(order, int(u))
		}
	}
	return order
}

func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

type heapEdge struct {
	w    uint64
	a, b int32
}

// before orders merges heaviest first, ties by endpoints.
func (e heapEdge) before(o heapEdge) bool {
	if e.w != o.w {
		return e.w > o.w
	}
	if e.a != o.a {
		return e.a < o.a
	}
	return e.b < o.b
}

// edgeHeap is a binary heap of merges, the one before sorts first on top.
type edgeHeap []heapEdge

func (h *edgeHeap) push(e heapEdge) {
	s := append(*h, e)
	*h = s
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].before(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

func (h *edgeHeap) pop() heapEdge {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && s[r].before(s[kid]) {
			kid = r
		}
		if !s[kid].before(s[i]) {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	return top
}
