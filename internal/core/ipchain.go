package core

import (
	"fmt"

	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// CallChainUnits merges placement units along hot call edges, Codestitcher
// style: when a unit contains a call whose callee's entry starts another hot
// unit, the two units are concatenated so the call chain lands on adjacent
// cache lines. Pettis–Hansen ordering keeps caller and callee *near* each
// other but still aligns every unit start and may orient a merge backwards;
// call chaining guarantees the callee entry is placed contiguously after the
// caller's unit, with no alignment padding in between.
//
// Candidate edges are processed heaviest first, and a merge is accepted when
// the caller unit is still a chain tail, the callee unit is still a chain
// head, and no cycle would form — the same greedy discipline basic-block
// chaining applies within a procedure, lifted to inter-procedural placement
// units. The returned slice preserves the original relative order of the
// surviving units; absorbed units disappear into their chain head.
//
// minWeight is the merge threshold: call edges executed fewer than minWeight
// times are not merge candidates (0 and 1 both mean any executed edge — the
// ipchain:N pass parameter raises the bar so rare call paths stay separate
// units).
func CallChainUnits(p *program.Program, pf *profile.Profile, units []Unit, minWeight uint64) []Unit {
	if minWeight == 0 {
		minWeight = 1
	}
	headOf := unitHeads(units)
	var links []link
	for i, u := range units {
		if !u.Hot {
			continue
		}
		unitCalls(p, u.Blocks, headOf, func(call, entry program.BlockID, j int) {
			if w := pf.Edge(call, entry); w >= minWeight && j != i && units[j].Hot {
				links = append(links, link{w: w, a: int32(i), b: int32(j), from: int32(i), to: int32(j)})
			}
		})
	}
	next, prev := linkChains(len(units), links)

	merged := make([]Unit, 0, len(units))
	for i, u := range units {
		if prev[i] != -1 {
			continue // absorbed into an earlier chain
		}
		if next[i] == -1 {
			merged = append(merged, u)
			continue
		}
		blocks := append([]program.BlockID(nil), u.Blocks...)
		for cur := next[i]; cur != -1; cur = next[cur] {
			blocks = append(blocks, units[cur].Blocks...)
		}
		merged = append(merged, Unit{
			Blocks: blocks,
			Proc:   u.Proc,
			Seq:    u.Seq,
			Count:  u.Count,
			Hot:    true,
		})
	}
	return merged
}

// ipchainPass is the inter-procedural call-chaining pass: it rewrites the
// unit list in place, so it must run after splitting and before ordering.
// minWeight is the merge threshold (see CallChainUnits).
type ipchainPass struct{ minWeight uint64 }

func (p ipchainPass) Name() string {
	if p.minWeight > 1 {
		return fmt.Sprintf("ipchain:%d", p.minWeight)
	}
	return "ipchain"
}

func (p ipchainPass) Run(st *LayoutState) error {
	if st.UnitOrder != nil {
		return fmt.Errorf("ipchain must run before units are ordered")
	}
	st.EnsureUnits()
	st.Units = CallChainUnits(st.Prog, st.Prof, st.Units, p.minWeight)
	st.countUnits()
	return nil
}
