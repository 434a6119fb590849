// Package progtest generates random programs and profiles for property
// tests. Several packages (program, core, codegen, machine) use it to check
// invariants over arbitrary CFGs rather than hand-picked examples.
package progtest

import (
	"fmt"
	"math/rand"

	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// RandProgram builds a random valid program with the given number of
// procedures. Control flow is arbitrary but always structurally valid:
// conditionals have distinct arms, calls have intra-procedure continuations,
// and every procedure ends with at least one return.
func RandProgram(r *rand.Rand, procs int) *program.Program {
	if procs < 1 {
		procs = 1
	}
	p := program.New("rand", isa.AppTextBase)
	owned := make([][]*program.Block, procs)
	for pi := 0; pi < procs; pi++ {
		pr := p.AddProc(randName(r, pi))
		n := 1 + r.Intn(8)
		blocks := make([]*program.Block, n)
		for i := 0; i < n; i++ {
			blocks[i] = p.AddBlock(pr, r.Intn(11))
		}
		owned[pi] = blocks
	}
	for pi, blocks := range owned {
		n := len(blocks)
		anyRet := false
		for i, b := range blocks {
			pick := func() program.BlockID { return blocks[r.Intn(n)].ID }
			if i == n-1 && !anyRet {
				b.Kind = isa.TermRet
				anyRet = true
				continue
			}
			switch r.Intn(10) {
			case 0, 1:
				b.Kind = isa.TermFallThrough
				b.Fall = pick()
			case 2, 3, 4:
				if n < 2 {
					b.Kind = isa.TermRet
					anyRet = true
					continue
				}
				b.Kind = isa.TermCond
				b.Taken = pick()
				for {
					b.Fall = pick()
					if b.Fall != b.Taken {
						break
					}
				}
			case 5:
				b.Kind = isa.TermBranch
				b.Taken = pick()
			case 6, 7:
				b.Kind = isa.TermCall
				b.Callee = program.ProcID(r.Intn(len(owned)))
				b.Fall = pick()
			case 8:
				if n < 2 {
					b.Kind = isa.TermRet
					anyRet = true
					continue
				}
				b.Kind = isa.TermIndirect
				k := 2 + r.Intn(2)
				for j := 0; j < k; j++ {
					b.Targets = append(b.Targets, pick())
				}
			default:
				b.Kind = isa.TermRet
				anyRet = true
			}
		}
		_ = pi
	}
	if err := p.Validate(); err != nil {
		panic("progtest: generated invalid program: " + err.Error())
	}
	return p
}

func randName(r *rand.Rand, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 4)
	for j := range b {
		b[j] = letters[r.Intn(len(letters))]
	}
	return string(b) + "_" + string(rune('0'+i%10))
}

// Walk performs one random logical execution from the entry of proc 0,
// visiting at most steps blocks, and reports each (prev, block) transition.
// Call continuations are reported with the call block as predecessor,
// matching how the Pixie collector records edges. The walk is the reference
// semantics the emitter must agree with.
func Walk(r *rand.Rand, p *program.Program, steps int, visit func(prev, cur program.BlockID)) {
	type frame struct {
		cont program.BlockID
		call program.BlockID
	}
	var stack []frame
	cur := p.Entry(0)
	var prev program.BlockID = program.NoBlock
	for i := 0; i < steps && cur != program.NoBlock; i++ {
		visit(prev, cur)
		b := p.Block(cur)
		switch b.Kind {
		case isa.TermFallThrough:
			prev, cur = cur, b.Fall
		case isa.TermCond:
			if r.Intn(2) == 0 {
				prev, cur = cur, b.Taken
			} else {
				prev, cur = cur, b.Fall
			}
		case isa.TermBranch:
			prev, cur = cur, b.Taken
		case isa.TermCall:
			if len(stack) >= 64 {
				// Bound recursion: skip the call, treat as fall-through.
				prev, cur = cur, b.Fall
				continue
			}
			stack = append(stack, frame{cont: b.Fall, call: cur})
			prev, cur = cur, p.Entry(b.Callee)
		case isa.TermRet:
			if len(stack) == 0 {
				return
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			prev, cur = f.call, f.cont
		case isa.TermIndirect:
			prev, cur = cur, b.Targets[r.Intn(len(b.Targets))]
		case isa.TermHalt:
			return
		}
	}
}

// RandProfile collects an exact profile over the given number of random
// walks.
func RandProfile(r *rand.Rand, p *program.Program, walks, steps int) *profile.Profile {
	pf := profile.New("randwalk", p)
	for i := 0; i < walks; i++ {
		Walk(r, p, steps, func(prev, cur program.BlockID) {
			pf.AddBlock(cur, 1)
			if prev != program.NoBlock {
				pf.AddEdge(prev, cur, 1)
			}
		})
	}
	return pf
}

// CheckPlacement holds the layout's placement word per block to rules it
// derives itself: its exit bits price each way out of the block as ExecWords
// does from Adj and CondFirst, its landing bit marks the calls whose
// continuation is not adjacent, and its address is where a walk of Order puts
// the block — after the gap before it, padded to AlignWords when it starts an
// alignment unit, past its predecessor's words (the occupancy those exit bits
// give).
func CheckPlacement(l *program.Layout) error {
	for _, b := range l.Prog.Blocks {
		w := l.Place[b.ID]
		x := w.Exit()
		want := func(what string, got int32, succ program.BlockID) error {
			if words := l.ExecWords(b, succ) - b.Body; got != words {
				return fmt.Errorf("block %d (%s): Exit %s = %d words, ExecWords says %d", b.ID, b.Kind, what, got, words)
			}
			return nil
		}
		var err error
		switch b.Kind {
		case isa.TermFallThrough, isa.TermCall:
			err = want("fall", x.Fall(), b.Fall)
		case isa.TermCond:
			if err = want("fall", x.Fall(), b.Fall); err == nil {
				err = want("taken", x.Taken(), b.Taken)
			}
		case isa.TermBranch:
			err = want("taken", x.Taken(), b.Taken)
		case isa.TermIndirect:
			for _, tgt := range b.Targets {
				if err = want("only", x.Fall(), tgt); err != nil {
					break
				}
			}
		default:
			err = want("only", x.Fall(), program.NoBlock)
		}
		if err != nil {
			return err
		}
		if b.Kind != isa.TermCond && min(x.Fall(), x.Taken()) != 0 {
			return fmt.Errorf("block %d (%s): Exit prices two ways out (%d, %d words), the block has one", b.ID, b.Kind, x.Fall(), x.Taken())
		}
		if split := b.Kind == isa.TermCall && l.Adj[b.ID] == program.NoBlock; split != x.Landing() {
			return fmt.Errorf("block %d (%s, adjacent to %d): Exit landing = %v", b.ID, b.Kind, l.Adj[b.ID], x.Landing())
		}
	}
	// Materialize clamps the alignment to the placement word's 56 address
	// bits; a wider one cannot have padded any block of a layout it returned.
	align := min(uint64(l.AlignWords), 1<<56/isa.WordBytes) * isa.WordBytes
	addr, pad := l.Prog.TextBase, int64(0)
	for _, id := range l.Order {
		at := addr + l.GapBefore[id]
		if align > 0 && l.AlignAt[id] && at%align != 0 {
			at += align - at%align
		}
		pad += int64((at - addr) / isa.WordBytes)
		if got := l.Addr(id); got != at {
			return fmt.Errorf("block %d: placement word holds address %#x, the walk of the order puts it at %#x", id, got, at)
		}
		addr = at + uint64(l.Occ(id))*isa.WordBytes
	}
	if pad != l.PadWords {
		return fmt.Errorf("layout pads %d words, the walk of the order %d", l.PadWords, pad)
	}
	return nil
}
