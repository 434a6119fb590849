package program

import (
	"fmt"

	"codelayout/internal/isa"
)

// Layout is a placement of every block of a program at concrete addresses,
// together with the terminator materialization the placement implies:
//
//   - an unconditional branch (or fall-through continuation) to the
//     physically next block is elided;
//   - a conditional branch whose hot arm is adjacent flips polarity so the
//     adjacent arm falls through, costing one word;
//   - a conditional branch with neither arm adjacent needs a branch pair
//     (conditional + unconditional), costing two words;
//   - a call whose continuation is not adjacent needs a landing branch after
//     the call word, because the return address is the next word.
//
// These rules reproduce, at the address-stream level, what Spike's rewriter
// does to an Alpha executable.
type Layout struct {
	Prog *Program

	// Order is the placement order of every block.
	Order []BlockID

	// Adj[b] is the successor of b reached by pure fall-through under this
	// layout (the physically next block when the terminator allows the
	// transfer to be elided or flipped onto it), or NoBlock.
	Adj []BlockID

	// Place[b] is block b's placement word: its address and what leaving b
	// fetches beyond its body under this layout — the emitter's per-block view
	// of the terminator rules above, in the one word it reads on a block exit.
	// Addr and Occ decode the block's address and size from it; the layout
	// keeps no other copy of them.
	Place []Place

	// CondFirst[b], for a conditional block with no adjacent arm, names the
	// successor tested by the first branch of the branch pair (the cheaper
	// exit). NoBlock elsewhere.
	CondFirst []BlockID

	// AlignWords is the alignment the layout was materialized with: every
	// AlignAt block starts on a multiple of this many words (zero: none).
	AlignWords int

	// AlignAt marks blocks that begin an alignment unit (procedure or
	// segment starts).
	AlignAt map[BlockID]bool

	// GapBefore records explicit gaps inserted before blocks (CFA).
	GapBefore map[BlockID]uint64

	// PadWords is the total alignment padding inserted.
	PadWords int64

	// LongBranches counts direct control transfers whose displacement
	// exceeds the ISA branch reach and would need a long-branch sequence.
	LongBranches int
}

// DefaultAlignWords is the unit-start alignment, in words, of the baseline
// layout and of an optimized one that sets none (16 bytes).
const DefaultAlignWords = 4

// MaterializeOptions configures layout materialization.
type MaterializeOptions struct {
	// AlignWords pads the start of each alignment unit to a multiple of this
	// many words. Zero disables alignment.
	AlignWords int
	// AlignAt marks the blocks that begin alignment units. If nil, every
	// procedure's first block in placement order begins a unit.
	AlignAt map[BlockID]bool
	// FallFirst, if non-nil, reports whether a branch pair materialized for
	// conditional block b tests b's Fall arm first, making it the cheap
	// exit. If nil the taken arm is tested first.
	FallFirst func(b *Block) bool
	// GapBefore inserts an explicit gap of the given number of bytes before
	// a block, on top of any alignment. The CFA optimization uses gaps to
	// keep ordinary code out of the reserved conflict-free cache region.
	GapBefore map[BlockID]uint64
}

// Materialize derives a Layout from a placement order. The order must contain
// every block of the program exactly once.
func Materialize(p *Program, order []BlockID, opts MaterializeOptions) (*Layout, error) {
	if len(order) != len(p.Blocks) {
		return nil, fmt.Errorf("layout: order has %d blocks, program has %d", len(order), len(p.Blocks))
	}
	n := len(p.Blocks)
	l := &Layout{
		Prog:       p,
		Order:      order,
		Adj:        make([]BlockID, n),
		Place:      make([]Place, n),
		CondFirst:  make([]BlockID, n),
		AlignWords: opts.AlignWords,
	}
	alignAt := opts.AlignAt
	if alignAt == nil {
		alignAt = make(map[BlockID]bool)
		seenProc := make([]bool, len(p.Procs))
		for _, id := range order {
			pr := p.Blocks[id].Proc
			if !seenProc[pr] {
				seenProc[pr] = true
				alignAt[id] = true
			}
		}
	}
	l.AlignAt = alignAt

	seen := make([]bool, n)
	for i, id := range order {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("layout: bad block id %d at position %d", id, i)
		}
		if seen[id] {
			return nil, fmt.Errorf("layout: block %d placed twice", id)
		}
		seen[id] = true
	}

	// Addresses advance through the order and every step is checked: gaps
	// come straight from a layout file, so an address must stay a whole number
	// of words and, with the block it starts, below placeLimit.
	addr := p.TextBase
	skip := func(id BlockID, bytes uint64) error {
		if bytes >= placeLimit-addr {
			return fmt.Errorf("layout: block %d does not fit the %d-bit address space: %d bytes after %#x", id, placeAddrBits, bytes, addr)
		}
		addr += bytes
		return nil
	}
	if addr >= placeLimit || addr%isa.WordBytes != 0 {
		return nil, fmt.Errorf("layout: text base %#x is not a word address below %#x", addr, uint64(placeLimit))
	}
	// An alignment wider than the address space pads the first unit it moves
	// out of it; clamped to that width the byte count below cannot wrap.
	align := min(uint64(opts.AlignWords), placeLimit/isa.WordBytes) * isa.WordBytes
	l.GapBefore = opts.GapBefore
	for i, id := range order {
		// Decide terminator materialization from adjacency.
		b := p.Blocks[id]
		var next BlockID = NoBlock
		if i+1 < len(order) && !alignAt[order[i+1]] && opts.GapBefore[order[i+1]] == 0 {
			// A block at an alignment boundary may still be a fall-through
			// target; padding would break contiguity, so treat unit starts
			// as non-adjacent. (Units begin procedures/segments, which are
			// entered by explicit transfers anyway.) A gap breaks contiguity
			// the same way; CFA only puts one before a unit start, a layout
			// file can put one anywhere.
			next = order[i+1]
		}
		x, adj, first := exitOf(b, next, opts.FallFirst)
		l.Adj[id], l.CondFirst[id] = adj, first

		if gap := opts.GapBefore[id]; gap > 0 {
			if gap%isa.WordBytes != 0 {
				return nil, fmt.Errorf("layout: gap of %d bytes before block %d is not a whole number of %d-byte words", gap, id, isa.WordBytes)
			}
			if err := skip(id, gap); err != nil {
				return nil, err
			}
			l.PadWords += int64(gap / isa.WordBytes)
		}
		if align > 0 && alignAt[id] {
			if rem := addr % align; rem != 0 {
				pad := align - rem
				if err := skip(id, pad); err != nil {
					return nil, err
				}
				l.PadWords += int64(pad / isa.WordBytes)
			}
		}
		l.Place[id] = Place(x)<<placeAddrBits | Place(addr)
		if err := skip(id, uint64(l.Occ(id))*isa.WordBytes); err != nil {
			return nil, err
		}
	}

	// Count long branches (direct transfers beyond ISA reach).
	for _, b := range p.Blocks {
		p.SuccEdges(b, func(e Edge) {
			if e.Kind == EdgeIndirect {
				return // indirect jumps have full reach
			}
			if l.Adj[b.ID] == e.Dst {
				return // elided or fall-through
			}
			src := int64(l.Addr(b.ID)) + int64(b.Body)*isa.WordBytes
			d := int64(l.Addr(e.Dst)) - src
			if d < 0 {
				d = -d
			}
			if d > isa.BranchDisplacementBytes {
				l.LongBranches++
			}
		})
	}
	return l, nil
}

// exitOf applies the terminator rules of Layout to block b placed directly
// before next (NoBlock: nothing adjacent). It returns what each way out of b
// fetches beyond its body, the successor b falls through to (or NoBlock) and,
// for a conditional with no adjacent arm, the arm its branch pair tests first
// (fallFirst as in MaterializeOptions; NoBlock elsewhere).
func exitOf(b *Block, next BlockID, fallFirst func(*Block) bool) (x Exit, adj, first BlockID) {
	// fall and taken are the terminator words an exit by that successor
	// fetches; the block occupies the longer of the two (plus a landing
	// branch), which is how Exit.words counts it.
	var fall, taken int32
	landing := false
	adj, first = NoBlock, NoBlock
	switch b.Kind {
	case isa.TermFallThrough:
		if b.Fall == next {
			adj = next
		} else {
			fall = 1
		}
	case isa.TermCond:
		fall, taken = 1, 1
		switch {
		case b.Fall == next:
			adj = next
		case b.Taken == next:
			// Polarity flip: the original taken arm falls through.
			adj = next
		default:
			first = b.Taken
			if fallFirst != nil && fallFirst(b) {
				first = b.Fall
			}
			if first == b.Fall {
				taken = 2
			} else {
				fall = 2
			}
		}
	case isa.TermBranch:
		if b.Taken == next {
			adj = next
		} else {
			taken = 1
		}
	case isa.TermCall:
		fall = 1
		if b.Fall == next {
			adj = next
		} else {
			landing = true
		}
	case isa.TermRet, isa.TermIndirect, isa.TermHalt:
		fall = 1
	}
	return newExit(fall, taken, landing), adj, first
}

// TermWords returns the terminator words block b occupies beyond its body
// when next is placed directly after it (NoBlock: nothing adjacent) — the
// size Materialize gives it, ahead of materializing.
func TermWords(b *Block, next BlockID) int32 {
	x, _, _ := exitOf(b, next, nil)
	return x.words()
}

// Place is one block's placement word: its address in the low placeAddrBits
// bits and its Exit above them, so a block exit reads one 8-byte word of the
// layout. Materialize builds it with the addresses and it lives and dies with
// the Layout (a cache of words beside the layouts would outlive every
// candidate a search discards).
type Place uint64

const (
	placeAddrBits = 56
	placeLimit    = 1 << placeAddrBits // addresses lie below it
)

// Addr returns the address of the block's first word.
func (w Place) Addr() uint64 { return uint64(w) & (placeLimit - 1) }

// Exit returns what leaving the block fetches beyond its body.
func (w Place) Exit() Exit { return Exit(w >> placeAddrBits) }

// Exit packs, in five bits, the terminator words each way out of the block
// fetches after its body (0: elided, 1: one branch, 2: the second branch of
// a pair) and whether a call block is followed by a landing branch. It is the
// form the emitter reads on every block exit; ExecWords and LandingRun answer
// the same questions from Adj and CondFirst and are what the tests hold it
// equal to.
type Exit uint8

const (
	exitWordsMask  = 3
	exitTakenShift = 2
	exitLanding    = 1 << 4
)

func newExit(fall, taken int32, landing bool) Exit {
	x := Exit(fall) | Exit(taken)<<exitTakenShift
	if landing {
		x |= exitLanding
	}
	return x
}

// Fall returns the terminator words fetched when the block leaves by its Fall
// successor, or by its only way out (calls, returns, indirect jumps, halts).
func (x Exit) Fall() int32 { return int32(x & exitWordsMask) }

// Taken returns the terminator words fetched when the block leaves by its
// Taken successor.
func (x Exit) Taken() int32 { return int32(x >> exitTakenShift & exitWordsMask) }

// Landing reports whether the block is a call whose continuation is not
// adjacent, so a return to it executes a landing branch first.
func (x Exit) Landing() bool { return x&exitLanding != 0 }

// words returns the terminator words the block occupies: the longer of its
// two exits and a call's landing branch.
func (x Exit) words() int32 {
	w := max(x.Fall(), x.Taken())
	if x.Landing() {
		w++
	}
	return w
}

// Addr returns the virtual address of block b's first word.
func (l *Layout) Addr(b BlockID) uint64 { return l.Place[b].Addr() }

// Occ returns the number of words block b occupies: its body, the longer of
// its two exits' terminator words and a call's landing branch. Alignment
// padding is not included.
func (l *Layout) Occ(b BlockID) int32 {
	return l.Prog.Blocks[b].Body + l.Place[b].Exit().words()
}

// End returns the address one past the last word of block b.
func (l *Layout) End(b BlockID) uint64 {
	return l.Addr(b) + uint64(l.Occ(b))*isa.WordBytes
}

// TotalWords returns the total size of the laid-out text in words, including
// padding.
func (l *Layout) TotalWords() int64 {
	w := l.PadWords
	for b := range l.Place {
		w += int64(l.Occ(BlockID(b)))
	}
	return w
}

// TotalBytes returns the total size of the laid-out text in bytes.
func (l *Layout) TotalBytes() int64 { return l.TotalWords() * isa.WordBytes }

// ExecWords returns the number of words fetched when block b executes and
// leaves via the edge to succ (NoBlock for Ret/Halt, the chosen target for
// indirect jumps). Landing-branch words of calls are not included here; the
// emitter accounts for them at return time via LandingRun.
func (l *Layout) ExecWords(b *Block, succ BlockID) int32 {
	switch b.Kind {
	case isa.TermFallThrough, isa.TermBranch:
		if l.Adj[b.ID] == succ {
			return b.Body
		}
		return b.Body + 1
	case isa.TermCond:
		if l.Adj[b.ID] != NoBlock {
			return b.Body + 1
		}
		if succ == l.CondFirst[b.ID] {
			return b.Body + 1
		}
		return b.Body + 2
	case isa.TermCall:
		return b.Body + 1
	default: // Ret, Indirect, Halt
		return b.Body + 1
	}
}

// LandingRun returns the address and length (in words) of the landing branch
// executed when control returns to call block b's continuation, or ok=false
// when the continuation is adjacent and no landing branch exists.
func (l *Layout) LandingRun(b BlockID) (addr uint64, words int32, ok bool) {
	if !l.Place[b].Exit().Landing() {
		return 0, 0, false
	}
	// Block layout: [body][call][landing branch].
	return l.Addr(b) + uint64(l.Prog.Blocks[b].Body+1)*isa.WordBytes, 1, true
}

// Validate checks layout invariants: every block placed once, addresses
// consistent with occupancy and padding, adjacency claims physically true,
// and occupancy consistent with terminator rules. Intended for tests.
func (l *Layout) Validate() error {
	p := l.Prog
	if len(l.Order) != len(p.Blocks) {
		return fmt.Errorf("layout: order size %d != %d blocks", len(l.Order), len(p.Blocks))
	}
	seen := make([]bool, len(p.Blocks))
	var prev BlockID = NoBlock
	for _, id := range l.Order {
		if seen[id] {
			return fmt.Errorf("layout: block %d placed twice", id)
		}
		seen[id] = true
		if prev != NoBlock {
			gap := int64(l.Addr(id)) - int64(l.End(prev))
			if gap < 0 {
				return fmt.Errorf("layout: block %d overlaps predecessor %d", id, prev)
			}
			if gap > 0 && !l.AlignAt[id] && l.GapBefore[id] == 0 {
				return fmt.Errorf("layout: unexpected gap %d before block %d", gap, id)
			}
		}
		prev = id
	}
	for _, b := range p.Blocks {
		adj := l.Adj[b.ID]
		if adj != NoBlock {
			if l.Addr(adj) != l.End(b.ID) {
				return fmt.Errorf("layout: block %d claims adjacency to %d but addresses disagree", b.ID, adj)
			}
			switch b.Kind {
			case isa.TermFallThrough:
				if adj != b.Fall {
					return fmt.Errorf("layout: fall block %d adjacent to non-successor %d", b.ID, adj)
				}
			case isa.TermCond:
				if adj != b.Fall && adj != b.Taken {
					return fmt.Errorf("layout: cond block %d adjacent to non-successor %d", b.ID, adj)
				}
			case isa.TermBranch:
				if adj != b.Taken {
					return fmt.Errorf("layout: branch block %d adjacent to non-target %d", b.ID, adj)
				}
			case isa.TermCall:
				if adj != b.Fall {
					return fmt.Errorf("layout: call block %d adjacent to non-continuation %d", b.ID, adj)
				}
			default:
				return fmt.Errorf("layout: %v block %d cannot have adjacency", b.Kind, b.ID)
			}
		}
		want := b.Body
		switch b.Kind {
		case isa.TermFallThrough, isa.TermBranch:
			if adj == NoBlock {
				want++
			}
		case isa.TermCond:
			if adj == NoBlock {
				want += 2
			} else {
				want++
			}
		case isa.TermCall:
			want++
			if adj == NoBlock {
				want++
				if !l.Place[b.ID].Exit().Landing() {
					return fmt.Errorf("layout: call block %d missing landing flag", b.ID)
				}
			} else if l.Place[b.ID].Exit().Landing() {
				return fmt.Errorf("layout: call block %d has landing flag with adjacent continuation", b.ID)
			}
		case isa.TermRet, isa.TermIndirect, isa.TermHalt:
			want++
		}
		if occ := l.Occ(b.ID); occ != want {
			return fmt.Errorf("layout: block %d occupancy %d, want %d", b.ID, occ, want)
		}
	}
	return nil
}

// SourceOrder returns the baseline placement: procedures in link order, each
// procedure's blocks in source order. This models the original unoptimized
// binary.
func SourceOrder(p *Program) []BlockID {
	order := make([]BlockID, 0, len(p.Blocks))
	for _, pr := range p.Procs {
		order = append(order, pr.Blocks...)
	}
	return order
}

// BaselineLayout materializes the source-order layout with standard
// procedure alignment.
func BaselineLayout(p *Program) (*Layout, error) {
	return Materialize(p, SourceOrder(p), MaterializeOptions{AlignWords: DefaultAlignWords})
}
