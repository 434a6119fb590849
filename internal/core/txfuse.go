package core

import (
	"fmt"
	"sort"
	"strconv"

	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// KindRoot seeds one fused placement unit: a transaction-kind label and the
// procedure of the kind's entry model. The image-aware pipeline entry
// (RunChained) resolves Workload.KindRoots names to procedures and threads
// them here.
type KindRoot struct {
	Kind string
	Proc program.ProcID
}

// ProcCloner is the seam through which txfuse deduplicates shared engine
// code: cloning a procedure into a transaction kind's fused unit while the
// original keeps serving every other caller. codegen's specialized images
// implement it; a nil cloner disables cloning (shared procedures then stay
// with their heaviest claimant only).
type ProcCloner interface {
	// CloneProc appends a copy of procedure id tagged for a transaction
	// kind and returns the clone's procedure ID.
	CloneProc(id program.ProcID, tag string) (program.ProcID, error)
}

// DefaultFuseBudgetPct is the txfuse code-growth budget: cloned procedure
// words may not exceed this percentage of the pre-fusion *hot* code size.
// Hot words are what compete for instruction-cache capacity, so sizing the
// budget against them keeps duplication from inflating the working set (and
// a fortiori keeps the image inside the application text address map, which
// the total size could also bound but far too loosely to protect the cache).
const DefaultFuseBudgetPct = 10

// txfusePass fuses each transaction kind's hot call chain into one
// placement unit, laid out in straight-line execution order.
type txfusePass struct{ budgetPct int }

func (p txfusePass) Name() string {
	if p.budgetPct == DefaultFuseBudgetPct {
		return "txfuse"
	}
	return "txfuse:" + strconv.Itoa(p.budgetPct)
}

// fuseGroup is one transaction kind's fusion state during the pass.
type fuseGroup struct {
	kind     string
	rootUnit int
	// want lists the units the kind's hot call chain reaches, in DFS
	// first-call-site preorder (the straight-line execution order).
	want []int
	// claim sums the call-edge weight from the kind's group into each
	// wanted unit; the heaviest claimant keeps the original, the rest clone.
	claim map[int]uint64
}

func (p txfusePass) Run(st *LayoutState) error {
	if st.UnitOrder != nil {
		return fmt.Errorf("txfuse must run before units are ordered")
	}
	if st.fused {
		return fmt.Errorf("units already fused")
	}
	st.EnsureUnits()
	st.fused = true
	prog, pf := st.Prog, st.Prof

	headOf := unitHeads(st.Units)
	roots := st.KindRoots
	if len(roots) == 0 {
		roots = deriveRoots(st, headOf)
	}

	// Resolve the root units; a kind whose root never executed fuses
	// nothing (the profile has no chain to follow).
	rootUnitOf := make(map[int]bool)
	var groups []*fuseGroup
	for _, r := range roots {
		if int(r.Proc) >= len(prog.Procs) {
			return fmt.Errorf("txfuse: kind %q root proc %d out of range", r.Kind, r.Proc)
		}
		entry := prog.Entry(r.Proc)
		ui, ok := headOf[entry]
		if !ok || pf.Count(entry) == 0 {
			continue
		}
		if rootUnitOf[ui] {
			continue // two kinds naming the same model fuse once
		}
		rootUnitOf[ui] = true
		groups = append(groups, &fuseGroup{kind: r.Kind, rootUnit: ui, claim: make(map[int]uint64)})
	}

	// Follow each kind's hottest call edges transitively from its root.
	for _, g := range groups {
		rootW := st.Units[g.rootUnit].Count
		threshold := rootW / 8
		if threshold == 0 {
			threshold = 1
		}
		inWant := map[int]bool{g.rootUnit: true}
		var walk func(ui int)
		walk = func(ui int) {
			unitCalls(prog, st.Units[ui].Blocks, headOf, func(call, entry program.BlockID, j int) {
				if pf.Edge(call, entry) < threshold || !st.Units[j].Hot || inWant[j] {
					return
				}
				inWant[j] = true
				g.want = append(g.want, j)
				walk(j)
			})
		}
		walk(g.rootUnit)
		// Claims: total call-edge weight into each wanted unit from the
		// whole group (root plus every wanted unit).
		scan := append([]int{g.rootUnit}, g.want...)
		for _, ui := range scan {
			unitCalls(prog, st.Units[ui].Blocks, headOf, func(call, entry program.BlockID, j int) {
				if inWant[j] && j != g.rootUnit {
					g.claim[j] += pf.Edge(call, entry)
				}
			})
		}
	}

	// Weighted assignment: the heaviest claimant of a shared unit keeps the
	// original; root units always keep themselves. Everyone else clones.
	owner := make(map[int]int) // unit index -> group index owning the original
	for gi, g := range groups {
		for _, j := range g.want {
			if rootUnitOf[j] {
				continue // another kind's root: clone-only
			}
			if cur, ok := owner[j]; !ok || g.claim[j] > groups[cur].claim[j] {
				owner[j] = gi
			}
		}
	}

	// Budgeted cloning, heaviest claims first, so the highest-traffic
	// duplicates land inside their kind's straight-line sweep and the tail
	// is cut when the code-growth budget runs out.
	type cloneCand struct {
		gi, unit int
		w        uint64
	}
	var cands []cloneCand
	for gi, g := range groups {
		for _, j := range g.want {
			if o, ok := owner[j]; ok && o == gi {
				continue
			}
			cands = append(cands, cloneCand{gi, j, g.claim[j]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		if x.w != y.w {
			return x.w > y.w
		}
		if x.gi != y.gi {
			return x.gi < y.gi
		}
		return x.unit < y.unit
	})
	var budget int64
	if st.Cloner != nil && p.budgetPct > 0 {
		var hot int64
		for _, u := range st.Units {
			if u.Hot {
				hot += unitWords(prog, u)
			}
		}
		budget = hot * int64(p.budgetPct) / 100
	}
	// cloneBlocks[gi][unit] is the clone's block list in the original
	// unit's chain order.
	cloneBlocks := make(map[int]map[int][]program.BlockID)
	cloneProcOf := make(map[int]map[program.ProcID]procClone)
	var cloneWords int64
	for _, c := range cands {
		if st.Cloner == nil {
			break
		}
		est := unitWords(prog, st.Units[c.unit])
		if cloneWords+est > budget {
			continue
		}
		g := groups[c.gi]
		origProc := prog.Proc(st.Units[c.unit].Proc)
		newID, err := st.Cloner.CloneProc(origProc.ID, g.kind)
		if err != nil {
			return fmt.Errorf("txfuse: clone %s for %s: %w", origProc.Name, g.kind, err)
		}
		cloneWords += est
		newProc := prog.Proc(newID)
		remap := make(map[program.BlockID]program.BlockID, len(origProc.Blocks))
		for i, ob := range origProc.Blocks {
			remap[ob] = newProc.Blocks[i]
		}
		pc := procClone{id: newID, remap: remap}
		if cloneBlocks[c.gi] == nil {
			cloneBlocks[c.gi] = make(map[int][]program.BlockID)
			cloneProcOf[c.gi] = make(map[program.ProcID]procClone)
		}
		cloneBlocks[c.gi][c.unit] = pc.blocks(st.Units[c.unit])
		cloneProcOf[c.gi][origProc.ID] = pc
		transferProfile(st, origProc, remap, c.w)
	}

	// Assemble one fused unit per kind: the root's blocks followed by every
	// absorbed or cloned member in straight-line (DFS preorder) call order.
	fusedOf := make(map[int]Unit, len(groups))
	absorbed := make(map[int]bool)
	for gi, g := range groups {
		ru := st.Units[g.rootUnit]
		blocks := append([]program.BlockID(nil), ru.Blocks...)
		for _, j := range g.want {
			if o, ok := owner[j]; ok && o == gi {
				blocks = append(blocks, st.Units[j].Blocks...)
				absorbed[j] = true
			} else if cb, ok := cloneBlocks[gi][j]; ok {
				blocks = append(blocks, cb...)
			}
		}
		fusedOf[g.rootUnit] = Unit{Blocks: blocks, Proc: ru.Proc, Seq: ru.Seq, Count: ru.Count, Hot: true}
		// Rewire the group's calls onto its clones, moving the call-edge
		// weight with them so ordering sees the fused topology.
		for _, bid := range blocks {
			b := prog.Block(bid)
			if b.Kind != isa.TermCall || b.Callee == program.NoProc {
				continue
			}
			pc, ok := cloneProcOf[gi][b.Callee]
			if !ok {
				continue
			}
			newP := pc.id
			oldEntry, newEntry := prog.Entry(b.Callee), prog.Entry(newP)
			if w := pf.Edge(bid, oldEntry); w > 0 {
				pf.AddEdge(bid, newEntry, w)
				pf.EdgeCount[program.EdgeKey(bid, oldEntry)] = 0
			}
			b.Callee = newP
		}
	}

	merged := make([]Unit, 0, len(st.Units))
	for i, u := range st.Units {
		switch {
		case absorbed[i]:
			// folded into its owner's fused unit
		case rootUnitOf[i]:
			merged = append(merged, fusedOf[i])
		default:
			merged = append(merged, u)
		}
	}
	// A clone copies its whole procedure, but only the unit headed by the
	// entry joined a fused unit. Under a splitting pass the procedure's other
	// units (its cold half, its later segments) were cloned too and are code
	// the layout must place: they follow as units of the clone.
	if len(cloneProcOf) > 0 {
		for i, u := range st.Units {
			for gi := range groups { // group order, not map order: units must come out the same every run
				pc, cloned := cloneProcOf[gi][u.Proc]
				if _, placed := cloneBlocks[gi][i]; cloned && !placed {
					merged = append(merged, makeUnit(pf, pc.id, u.Seq, pc.blocks(u)))
				}
			}
		}
	}
	st.Units = merged
	st.Report.FusedKinds = len(groups)
	st.Report.ClonedProcs = countClones(cloneProcOf)
	st.Report.CloneWords = cloneWords
	st.countUnits()
	return nil
}

// procClone is one kind's clone of a procedure: the new procedure and the
// original-to-clone block map.
type procClone struct {
	id    program.ProcID
	remap map[program.BlockID]program.BlockID
}

// blocks returns the clone's copy of a unit of the original procedure, in the
// unit's chain order.
func (pc procClone) blocks(u Unit) []program.BlockID {
	out := make([]program.BlockID, len(u.Blocks))
	for i, ob := range u.Blocks {
		out[i] = pc.remap[ob]
	}
	return out
}

func countClones(m map[int]map[program.ProcID]procClone) int {
	n := 0
	for _, procs := range m {
		n += len(procs)
	}
	return n
}

// transferProfile moves a clone's share of the original procedure's block
// and intra-procedure edge counts onto the clone, proportional to the
// claim's share of the entry inflow, so ordering and hotness see the split
// traffic instead of double-counting it.
func transferProfile(st *LayoutState, orig *program.Procedure, remap map[program.BlockID]program.BlockID, claim uint64) {
	prog, pf := st.Prog, st.Prof
	inflow := pf.Count(orig.Entry())
	if inflow == 0 {
		return
	}
	if claim > inflow {
		claim = inflow
	}
	for _, ob := range orig.Blocks {
		c := pf.Count(ob)
		if c > 0 {
			m := c * claim / inflow
			if m > pf.BlockCount[ob] {
				m = pf.BlockCount[ob]
			}
			pf.AddBlock(remap[ob], m)
			pf.BlockCount[ob] -= m
		}
		prog.SuccEdges(prog.Block(ob), func(e program.Edge) {
			if e.Kind == program.EdgeCall {
				// The clone's call edges keep no weight, so ordering sees no
				// affinity from a cloned caller to its callee: a known defect
				// (ROADMAP item 11(b)) whose fix deletes this skip.
				return
			}
			m := pf.Edge(ob, e.Dst) * claim / inflow
			if m == 0 {
				return
			}
			ns, ok := remap[e.Dst]
			if !ok {
				ns = e.Dst // cross-procedure branch
			}
			pf.AddEdge(remap[ob], ns, m)
			pf.EdgeCount[program.EdgeKey(ob, e.Dst)] -= m
		})
	}
}

// deriveRoots guesses kind roots when the pipeline runs program-only (no
// workload in sight, e.g. spike over a dumped program): every hot unit whose
// entry executed but is never the target of a recorded call edge is a
// top-level transaction driver.
func deriveRoots(st *LayoutState, headOf map[program.BlockID]int) []KindRoot {
	prog, pf := st.Prog, st.Prof
	called := make(map[int]bool)
	for _, u := range st.Units {
		unitCalls(prog, u.Blocks, headOf, func(call, entry program.BlockID, j int) {
			if pf.Edge(call, entry) > 0 {
				called[j] = true
			}
		})
	}
	type cand struct {
		ui int
		w  uint64
	}
	var cands []cand
	for i, u := range st.Units {
		if !u.Hot || u.Count == 0 || called[i] {
			continue
		}
		cands = append(cands, cand{i, u.Count})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].w != cands[b].w {
			return cands[a].w > cands[b].w
		}
		return cands[a].ui < cands[b].ui
	})
	var roots []KindRoot
	for _, c := range cands {
		pr := prog.Proc(st.Units[c.ui].Proc)
		roots = append(roots, KindRoot{Kind: pr.Name, Proc: pr.ID})
	}
	return roots
}
