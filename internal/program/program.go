// Package program defines the executable image representation the whole
// study operates on: procedures made of basic blocks with typed terminators,
// and layouts that place those blocks at addresses.
//
// The representation deliberately separates the immutable control-flow
// structure (Program) from its placement in memory (Layout). A layout
// optimizer such as internal/core never rewrites the CFG; it only chooses a
// new block order, and Materialize derives from that order which branches can
// be elided, which conditional branches flip polarity, and where branch pairs
// must be inserted — exactly the degrees of freedom Spike has when it
// rewrites an Alpha executable.
package program

import (
	"fmt"

	"codelayout/internal/isa"
)

// ProcID identifies a procedure within a Program.
type ProcID int32

// BlockID identifies a basic block within a Program. Block IDs are global
// across the program so that profiles and layouts can be stored as flat
// slices.
type BlockID int32

// NoBlock is the null BlockID.
const NoBlock BlockID = -1

// NoProc is the null ProcID.
const NoProc ProcID = -1

// Block is one basic block: Body straight-line instruction words followed by
// a terminator. The successor fields used depend on Kind:
//
//	TermFallThrough: Fall (single successor)
//	TermCond:        Taken (branch target) and Fall (fall-through)
//	TermBranch:      Taken (branch target, possibly in another procedure)
//	TermCall:        Callee (procedure called) and Fall (continuation)
//	TermRet:         none
//	TermIndirect:    Targets (possible destinations)
//	TermHalt:        none
type Block struct {
	ID      BlockID
	Proc    ProcID
	Body    int32
	Kind    isa.TermKind
	Fall    BlockID
	Taken   BlockID
	Callee  ProcID
	Targets []BlockID
}

// Procedure is a named collection of blocks. Blocks[0] is the entry block.
// Source order of Blocks defines the baseline ("original binary") layout
// within the procedure.
type Procedure struct {
	ID     ProcID
	Name   string
	Blocks []BlockID
	// Cold marks procedures that belong to the static image but are not
	// exercised by the workload (the bulk of a 27 MB database binary). They
	// occupy address space — and in the baseline link order they interleave
	// with hot code — but contribute no dynamic instructions.
	Cold bool
}

// Entry returns the procedure's entry block.
func (pr *Procedure) Entry() BlockID {
	if len(pr.Blocks) == 0 {
		return NoBlock
	}
	return pr.Blocks[0]
}

// Program is an executable image: procedures in link order plus the flat
// block table. TextBase is the virtual address of the first word of text.
type Program struct {
	Name     string
	TextBase uint64
	Procs    []*Procedure
	Blocks   []*Block
}

// New creates an empty program with the given name and text base address.
func New(name string, textBase uint64) *Program {
	return &Program{Name: name, TextBase: textBase}
}

// AddProc appends a new empty procedure and returns it.
func (p *Program) AddProc(name string) *Procedure {
	pr := &Procedure{ID: ProcID(len(p.Procs)), Name: name}
	p.Procs = append(p.Procs, pr)
	return pr
}

// AddBlock appends a new block to the given procedure and returns it. The
// block is created with no successors (NoBlock everywhere); callers fill in
// Kind and successor fields.
func (p *Program) AddBlock(pr *Procedure, body int) *Block {
	b := &Block{
		ID:     BlockID(len(p.Blocks)),
		Proc:   pr.ID,
		Body:   int32(body),
		Fall:   NoBlock,
		Taken:  NoBlock,
		Callee: NoProc,
	}
	p.Blocks = append(p.Blocks, b)
	pr.Blocks = append(pr.Blocks, b.ID)
	return b
}

// Clone returns a deep copy of the program — same ids, same order, nothing
// shared with p — that can grow on its own (AddProc, AddBlock). The copies
// come out of three slabs instead of one allocation per block and procedure:
// every fused search candidate clones the whole image, and what a clone costs
// is live memory for as long as the candidate's layout is.
func (p *Program) Clone() *Program {
	out := &Program{
		Name:     p.Name,
		TextBase: p.TextBase,
		Procs:    make([]*Procedure, len(p.Procs)),
		Blocks:   make([]*Block, len(p.Blocks)),
	}
	procs := make([]Procedure, len(p.Procs))
	ids := make([]BlockID, 0, len(p.Blocks))
	for i, pr := range p.Procs {
		procs[i] = *pr
		// Capacity stops at the procedure's own blocks, so an append to one
		// procedure reallocates instead of running into the next one's.
		ids = append(ids, pr.Blocks...)
		procs[i].Blocks = ids[len(ids)-len(pr.Blocks) : len(ids) : len(ids)]
		out.Procs[i] = &procs[i]
	}
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = *b
		blocks[i].Targets = append([]BlockID(nil), b.Targets...)
		out.Blocks[i] = &blocks[i]
	}
	return out
}

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) *Block { return p.Blocks[id] }

// Proc returns the procedure with the given ID.
func (p *Program) Proc(id ProcID) *Procedure { return p.Procs[id] }

// Entry returns the entry block of procedure id.
func (p *Program) Entry(id ProcID) BlockID { return p.Procs[id].Entry() }

// NumBlocks returns the number of blocks in the program.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// FindProc returns the first procedure with the given name, or nil.
func (p *Program) FindProc(name string) *Procedure {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Validate checks structural invariants: every procedure and block carries
// its own index as its id, every block belongs to exactly one procedure,
// successor references are in range and respect terminator kinds, and every
// procedure has an entry. It returns the first violation found.
func (p *Program) Validate() error {
	seen := make([]bool, len(p.Blocks))
	for i, pr := range p.Procs {
		if pr.ID != ProcID(i) {
			return fmt.Errorf("proc %q at index %d has id %d", pr.Name, i, pr.ID)
		}
		if len(pr.Blocks) == 0 {
			return fmt.Errorf("proc %q: no blocks", pr.Name)
		}
		for _, id := range pr.Blocks {
			if id < 0 || int(id) >= len(p.Blocks) {
				return fmt.Errorf("proc %q: block id %d out of range", pr.Name, id)
			}
			if seen[id] {
				return fmt.Errorf("proc %q: block %d appears twice", pr.Name, id)
			}
			seen[id] = true
			if p.Blocks[id].Proc != pr.ID {
				return fmt.Errorf("proc %q: block %d has proc %d", pr.Name, id, p.Blocks[id].Proc)
			}
		}
	}
	for id, b := range p.Blocks {
		if b.ID != BlockID(id) {
			return fmt.Errorf("block at index %d has id %d", id, b.ID)
		}
		if !seen[id] {
			return fmt.Errorf("block %d not in any procedure", id)
		}
		if b.Body < 0 {
			return fmt.Errorf("block %d: negative body", id)
		}
		check := func(ref BlockID, what string) error {
			if ref == NoBlock || int(ref) >= len(p.Blocks) || ref < 0 {
				return fmt.Errorf("block %d (%s): bad %s successor %d", id, b.Kind, what, ref)
			}
			return nil
		}
		switch b.Kind {
		case isa.TermFallThrough:
			if err := check(b.Fall, "fall"); err != nil {
				return err
			}
		case isa.TermCond:
			if err := check(b.Fall, "fall"); err != nil {
				return err
			}
			if err := check(b.Taken, "taken"); err != nil {
				return err
			}
			if b.Taken == b.Fall {
				return fmt.Errorf("block %d: degenerate conditional (both arms %d)", id, b.Fall)
			}
		case isa.TermBranch:
			if err := check(b.Taken, "target"); err != nil {
				return err
			}
		case isa.TermCall:
			if b.Callee < 0 || int(b.Callee) >= len(p.Procs) {
				return fmt.Errorf("block %d: bad callee %d", id, b.Callee)
			}
			if err := check(b.Fall, "continuation"); err != nil {
				return err
			}
			if p.Blocks[b.Fall].Proc != b.Proc {
				return fmt.Errorf("block %d: call continuation %d in different proc", id, b.Fall)
			}
		case isa.TermRet, isa.TermHalt:
			// no successors
		case isa.TermIndirect:
			if len(b.Targets) == 0 {
				return fmt.Errorf("block %d: indirect jump with no targets", id)
			}
			for _, t := range b.Targets {
				if err := check(t, "indirect"); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("block %d: unknown terminator %d", id, b.Kind)
		}
	}
	return nil
}

// Stats summarizes the static structure of a program.
type Stats struct {
	Procs     int
	ColdProcs int
	Blocks    int
	BodyWords int64 // straight-line words, excluding terminators and padding
	HotBlocks int   // blocks in non-cold procedures
	HotWords  int64 // body words in non-cold procedures
}

// ComputeStats tallies static structure statistics.
func (p *Program) ComputeStats() Stats {
	var s Stats
	s.Procs = len(p.Procs)
	s.Blocks = len(p.Blocks)
	cold := make([]bool, len(p.Procs))
	for _, pr := range p.Procs {
		if pr.Cold {
			s.ColdProcs++
			cold[pr.ID] = true
		}
	}
	for _, b := range p.Blocks {
		s.BodyWords += int64(b.Body)
		if !cold[b.Proc] {
			s.HotBlocks++
			s.HotWords += int64(b.Body)
		}
	}
	return s
}
