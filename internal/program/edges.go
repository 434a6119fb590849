package program

import "codelayout/internal/isa"

// EdgeKind classifies a control-flow edge.
type EdgeKind uint8

const (
	// EdgeFall is the single successor of a fall-through block.
	EdgeFall EdgeKind = iota
	// EdgeTaken is the taken arm of a conditional branch.
	EdgeTaken
	// EdgeCondFall is the fall-through arm of a conditional branch.
	EdgeCondFall
	// EdgeBranch is a direct unconditional branch (possibly cross-procedure).
	EdgeBranch
	// EdgeCall is a subroutine call; Dst is the callee's entry block.
	EdgeCall
	// EdgeCont is the call-continuation edge (call block to the block control
	// returns to). Not a fetch-order transfer at call time, but the layout
	// wants the continuation adjacent because the return address is the word
	// after the call.
	EdgeCont
	// EdgeIndirect is one possible destination of an indirect jump.
	EdgeIndirect
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeCondFall:
		return "cfall"
	case EdgeBranch:
		return "br"
	case EdgeCall:
		return "call"
	case EdgeCont:
		return "cont"
	case EdgeIndirect:
		return "ind"
	default:
		return "?"
	}
}

// Edge is a control-flow edge between two blocks.
type Edge struct {
	Src, Dst BlockID
	Kind     EdgeKind
}

// EdgeKey packs an edge's endpoints into a map key. Edge kind is not part of
// the key: between a given (src,dst) pair at most one CFG edge exists in this
// representation except for the degenerate conditional with both arms equal,
// which Validate rejects.
func EdgeKey(src, dst BlockID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// SplitEdgeKey is the inverse of EdgeKey.
func SplitEdgeKey(k uint64) (src, dst BlockID) {
	return BlockID(uint32(k >> 32)), BlockID(uint32(k))
}

// SuccEdges visits every outgoing control-flow edge of block b, including the
// call edge to the callee entry and the continuation edge.
func (p *Program) SuccEdges(b *Block, visit func(Edge)) {
	switch b.Kind {
	case isa.TermFallThrough:
		visit(Edge{b.ID, b.Fall, EdgeFall})
	case isa.TermCond:
		visit(Edge{b.ID, b.Taken, EdgeTaken})
		visit(Edge{b.ID, b.Fall, EdgeCondFall})
	case isa.TermBranch:
		visit(Edge{b.ID, b.Taken, EdgeBranch})
	case isa.TermCall:
		if entry := p.Entry(b.Callee); entry != NoBlock {
			visit(Edge{b.ID, entry, EdgeCall})
		}
		visit(Edge{b.ID, b.Fall, EdgeCont})
	case isa.TermIndirect:
		for _, t := range b.Targets {
			visit(Edge{b.ID, t, EdgeIndirect})
		}
	}
}

// FlowEdges visits the intra-procedure edges that the basic-block chaining
// pass may sequentialize: fall-throughs, both arms of conditionals, call
// continuations, and direct branches or indirect-jump arms whose destination
// is in the same procedure. Call edges are never flow edges.
func (p *Program) FlowEdges(b *Block, visit func(Edge)) {
	p.SuccEdges(b, func(e Edge) {
		if e.Kind == EdgeCall {
			return
		}
		if p.Blocks[e.Dst].Proc != b.Proc {
			return
		}
		visit(e)
	})
}
