// Package core implements the paper's primary contribution: the Spike-style
// profile-driven code layout optimizer. It provides the three algorithms of
// Section 2 — basic block chaining, fine-grain procedure splitting, and
// Pettis–Hansen procedure ordering — plus the hot/cold splitting variant
// shipped in the Spike distribution and the CFA (reserved conflict-free
// area) optimization the paper evaluated and discarded.
//
// Each layout rule has one home. Basic-block chaining and inter-procedural
// call chaining share one greedy linker (linkChains). The terminator, edge
// and alignment rules are package program's: unit sizes come from
// program.TermWords, edges from Program.SuccEdges and FlowEdges, and the
// default unit alignment is program.DefaultAlignWords.
package core

import (
	"sort"

	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// Chain is a sequence of blocks laid out consecutively so that every
// intra-chain transition is a fall-through (or an elided branch).
type Chain []program.BlockID

// ChainProc runs the paper's greedy basic-block chaining on one procedure:
// flow edges are sorted by weight and processed heaviest first; an edge
// joins two chains when its source is still a chain tail and its destination
// is still a chain head (and no cycle would form). The chain containing the
// procedure entry is placed first; the remaining chains follow in decreasing
// execution count of their first block.
func ChainProc(p *program.Program, pr *program.Procedure, pf *profile.Profile) []Chain {
	entry := pr.Entry()

	// Local indexes for the proc's blocks.
	local := make(map[program.BlockID]int32, len(pr.Blocks))
	for i, b := range pr.Blocks {
		local[b] = int32(i)
	}
	var links []link
	for _, bid := range pr.Blocks {
		p.FlowEdges(p.Block(bid), func(e program.Edge) {
			if e.Dst == e.Src || e.Dst == entry {
				return // a self-loop cannot be sequentialized; the entry stays a chain head
			}
			links = append(links, link{w: pf.Edge(e.Src, e.Dst),
				a: int32(e.Src), b: int32(e.Dst), from: local[e.Src], to: local[e.Dst]})
		})
	}
	next, prev := linkChains(len(pr.Blocks), links)

	var chains []Chain
	for i, bid := range pr.Blocks {
		if prev[i] != -1 {
			continue
		}
		ch := Chain{bid}
		for cur := next[i]; cur != -1; cur = next[cur] {
			ch = append(ch, pr.Blocks[cur])
		}
		chains = append(chains, ch)
	}

	sort.SliceStable(chains, func(i, j int) bool {
		a, b := chains[i], chains[j]
		ae, be := a[0] == entry, b[0] == entry
		if ae != be {
			return ae
		}
		ca, cb := pf.Count(a[0]), pf.Count(b[0])
		if ca != cb {
			return ca > cb
		}
		return a[0] < b[0]
	})
	return chains
}

// link is a candidate join for linkChains: node from's chain continues into
// node to's, worth w. a and b order candidates of equal weight.
type link struct {
	w        uint64
	a, b     int32
	from, to int32
}

// linkChains is the greedy linker basic-block chaining and call chaining
// share. It sorts links heaviest first (ties by a, then b) and takes a link
// when from is still a chain tail, to is still a chain head and the two lie
// on different chains. It returns each of the n nodes' chain successor and
// predecessor, -1 at a chain's tail and head.
func linkChains(n int, links []link) (next, prev []int32) {
	sort.Slice(links, func(i, j int) bool {
		x, y := links[i], links[j]
		if x.w != y.w {
			return x.w > y.w
		}
		if x.a != y.a {
			return x.a < y.a
		}
		return x.b < y.b
	})
	next, prev = make([]int32, n), make([]int32, n)
	parent := make([]int32, n) // union-find over chains, to reject cycles
	for i := range next {
		next[i], prev[i], parent[i] = -1, -1, int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range links {
		if next[l.from] != -1 || prev[l.to] != -1 {
			continue
		}
		rf, rt := find(l.from), find(l.to)
		if rf == rt {
			continue // would close a cycle
		}
		next[l.from], prev[l.to] = l.to, l.from
		parent[rf] = rt
	}
	return next, prev
}

// Chaining is the chain pass's result over one program and profile: each
// procedure's chains, ChainProc's for a procedure that is not cold and the
// source order for one that is. It is read-only once made: a pipeline handed
// one (Pipeline.RunChained) installs a shallow clone of the map, and no pass
// writes into a chain.
type Chaining map[program.ProcID][]Chain

// ChainProgram chains every procedure of p under pf: the Chaining the chain
// pass installs.
func ChainProgram(p *program.Program, pf *profile.Profile) Chaining {
	ch := make(Chaining, len(p.Procs))
	for _, pr := range p.Procs {
		if pr.Cold {
			ch[pr.ID] = SourceChains(pr)
		} else {
			ch[pr.ID] = ChainProc(p, pr, pf)
		}
	}
	return ch
}

// SourceChains returns the unchained block order of a procedure as a single
// chain (the layout the original binary has inside the procedure). The chain
// is the procedure's own block list, capacity-capped: no pass writes into a
// chain, and an append copies.
func SourceChains(pr *program.Procedure) []Chain {
	n := len(pr.Blocks)
	return []Chain{Chain(pr.Blocks[:n:n])}
}
