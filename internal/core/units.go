package core

import (
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// SplitMode selects how chained procedures are cut into placement units
// before procedure ordering.
type SplitMode int

const (
	// SplitNone keeps each procedure as a single placement unit.
	SplitNone SplitMode = iota
	// SplitFine is the paper's fine-grain splitting: every chain becomes a
	// separate segment/procedure, ending at an unconditional branch or
	// return, which gives the ordering pass freedom to separate hot from
	// cold code at basic-block granularity.
	SplitFine
	// SplitHotCold is the Spike-distribution variant: each procedure is
	// split into one hot part (executed blocks, in chain order) and one cold
	// part (never-executed blocks).
	SplitHotCold
)

func (m SplitMode) String() string {
	switch m {
	case SplitNone:
		return "none"
	case SplitFine:
		return "fine"
	case SplitHotCold:
		return "hotcold"
	default:
		return "?"
	}
}

// Unit is a placement unit: a run of blocks kept contiguous by the ordering
// pass. Depending on SplitMode a unit is a whole procedure, a chain/segment,
// or the hot or cold half of a procedure.
type Unit struct {
	Blocks []program.BlockID
	Proc   program.ProcID
	Seq    int // position among the proc's units in the pre-ordering layout
	// Count is the execution count of the unit's first block, the weight
	// used when ordering falls back to hotness.
	Count uint64
	// Hot reports whether any block in the unit executed.
	Hot bool
}

// BuildUnits converts per-procedure chains into placement units.
func BuildUnits(p *program.Program, pf *profile.Profile, chains map[program.ProcID][]Chain, mode SplitMode) []Unit {
	return BuildUnitsHot(p, pf, chains, mode, 1)
}

// BuildUnitsHot is BuildUnits with an explicit hot/cold partition threshold
// for SplitHotCold: a block lands in the hot half when its execution count is
// at least hotMin (1 reproduces the classic executed-at-all partition, the
// split:hotcold@N pass parameter raises the bar so lukewarm blocks join the
// cold half). Other split modes ignore the threshold.
func BuildUnitsHot(p *program.Program, pf *profile.Profile, chains map[program.ProcID][]Chain, mode SplitMode, hotMin uint64) []Unit {
	if hotMin == 0 {
		hotMin = 1
	}
	var units []Unit
	for _, pr := range p.Procs {
		ch := chains[pr.ID]
		switch mode {
		case SplitNone:
			var blocks []program.BlockID
			for _, c := range ch {
				blocks = append(blocks, c...)
			}
			units = append(units, makeUnit(pf, pr.ID, 0, blocks))
		case SplitFine:
			for i, c := range ch {
				units = append(units, makeUnit(pf, pr.ID, i, c))
			}
		case SplitHotCold:
			var hot, cold []program.BlockID
			for _, c := range ch {
				for _, b := range c {
					if pf.Count(b) >= hotMin {
						hot = append(hot, b)
					} else {
						cold = append(cold, b)
					}
				}
			}
			seq := 0
			if len(hot) > 0 {
				units = append(units, makeUnit(pf, pr.ID, seq, hot))
				seq++
			}
			if len(cold) > 0 {
				units = append(units, makeUnit(pf, pr.ID, seq, cold))
			}
		}
	}
	return units
}

func makeUnit(pf *profile.Profile, proc program.ProcID, seq int, blocks []program.BlockID) Unit {
	u := Unit{Blocks: blocks, Proc: proc, Seq: seq}
	if len(blocks) > 0 {
		u.Count = pf.Count(blocks[0])
	}
	for _, b := range blocks {
		if pf.Count(b) > 0 {
			u.Hot = true
			break
		}
	}
	return u
}

// unitWords estimates the words a unit occupies when its blocks are placed
// contiguously (intra-unit adjacency elides terminators exactly as
// Materialize will).
func unitWords(p *program.Program, u Unit) int64 {
	var w int64
	for i, id := range u.Blocks {
		b := p.Block(id)
		var next program.BlockID = program.NoBlock
		if i+1 < len(u.Blocks) {
			next = u.Blocks[i+1]
		}
		w += int64(b.Body) + int64(program.TermWords(b, next))
	}
	return w
}

// unitHeads maps each non-empty unit's first block to the unit's index, so a
// call can find the unit its callee's entry starts.
func unitHeads(units []Unit) map[program.BlockID]int {
	headOf := make(map[program.BlockID]int, len(units))
	for i, u := range units {
		if len(u.Blocks) > 0 {
			headOf[u.Blocks[0]] = i
		}
	}
	return headOf
}

// unitCalls visits, in block order, every call in blocks whose callee entry
// starts a unit of headOf: the call block, the callee entry and that unit.
func unitCalls(p *program.Program, blocks []program.BlockID, headOf map[program.BlockID]int, visit func(call, entry program.BlockID, unit int)) {
	for _, bid := range blocks {
		b := p.Block(bid)
		if b.Kind != isa.TermCall || b.Callee == program.NoProc {
			continue
		}
		entry := p.Entry(b.Callee)
		if j, ok := headOf[entry]; ok {
			visit(bid, entry, j)
		}
	}
}
