package codegen

import (
	"fmt"
	"sync"

	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// Fn is a modeled function inside a built image.
type Fn struct {
	Name string
	Auto bool
	Proc *program.Procedure
	// CloneOf names the original function this Fn was cloned from by the
	// fusion specializer (empty for functions built from a spec). Clones
	// replay the original's probe events under the original's name.
	CloneOf string
}

// EventName returns the probe-event name this function answers to: its own
// name, or — for a fusion clone — the name of the function it was cloned
// from.
func (fn *Fn) EventName() string {
	if fn.CloneOf != "" {
		return fn.CloneOf
	}
	return fn.Name
}

// Image is a modeled binary: the program plus the annotations the emitter
// needs to replay engine events over it.
//
// An image has two phases. While it is being built — Build, then CloneProc
// on a Specialize copy, then whatever call rewiring the fusion pass does on
// Prog — the per-block annotations live in note/decs. The first NewEmitter
// seals it: the annotations and the CFG are compiled, once, into the flat
// step table every emitter over the image walks, and the image can no longer
// grow.
type Image struct {
	Prog *program.Program
	Fns  map[string]*Fn
	// fnByProc maps ProcID to Fn.
	fnByProc []*Fn

	// note[b] indexes decs for a Cond or Indirect block that lowering
	// annotated; 0 (or a block past the end) means none. Both only grow: a
	// block's note and a decs entry never change once written, so clones
	// share entries and Specialize copies share the arrays.
	note []int32
	decs []decision

	// steps and jumps are the sealed form; steps is nil until then.
	sealOnce sync.Once
	steps    []step
	jumps    []jump
}

// decision annotates how a Cond or Indirect block's outcome is resolved.
type decision struct {
	// site names the engine decision site a Cond block implements.
	site string
	// auto marks a block the emitter's PRNG resolves instead: a Cond falls
	// through with probability prob, an Indirect (every one an AutoPick)
	// picks a target by the cumulative weights cum (parallel to
	// Block.Targets).
	auto bool
	prob float64
	cum  []uint32
}

// annotate records block b's decision.
func (img *Image) annotate(b program.BlockID, d decision) {
	img.decs = append(img.decs, d)
	img.setNote(b, int32(len(img.decs)-1))
}

func (img *Image) setNote(b program.BlockID, n int32) {
	for int(b) >= len(img.note) {
		img.note = append(img.note, 0)
	}
	img.note[b] = n
}

func (img *Image) noteOf(b program.BlockID) int32 {
	if int(b) >= len(img.note) {
		return 0
	}
	return img.note[b]
}

// step is one block as the emitter walks it: everything advance needs to
// leave the block, in one 16-byte row, so a block exit reads steps[id] plus
// the layout's placement word Place[id] and chases no pointer. The row is kept
// this small because every specialized image a search candidate builds owns a
// table: at 32 bytes a row the tables of one search-mix run were 9 MB of RSS.
type step struct {
	// head packs the terminator kind (bits 0-2), the auto flag (bit 3: a Cond
	// resolved by the PRNG, every Indirect, or a Call whose callee is an auto
	// function) and the body words (bits 8-31).
	head uint32
	fall program.BlockID
	// taken is Block.Taken, or the callee's entry block for a Call.
	taken program.BlockID
	// aux leads to the rest without hashing: the decs index of a Cond (an
	// engine site's name, an auto branch's probability), the jumps index of
	// an Indirect, the callee's ProcID (into fnByProc) of a Call.
	aux int32
}

const (
	stepKindMask  = 7
	stepAuto      = 1 << 3
	stepBodyShift = 8
)

func (s *step) kind() isa.TermKind { return isa.TermKind(s.head & stepKindMask) }
func (s *step) auto() bool         { return s.head&stepAuto != 0 }
func (s *step) body() int32        { return int32(s.head >> stepBodyShift) }

// jump is an Indirect block's dispatch table.
type jump struct {
	targets []program.BlockID
	cum     []uint32
}

// seal compiles the step table on first use. Every emitter over the image
// shares it, concurrent machines included, so it is built under a Once and
// never written again.
func (img *Image) seal() {
	img.sealOnce.Do(func() {
		steps := make([]step, len(img.Prog.Blocks))
		var jumps []jump
		for id, b := range img.Prog.Blocks {
			if b.Body >= 1<<(32-stepBodyShift) {
				panic(fmt.Sprintf("codegen: block b%d has %d body words; a step row holds %d bits of them", id, b.Body, 32-stepBodyShift))
			}
			n := img.noteOf(b.ID)
			auto := img.decs[n].auto
			s := &steps[id]
			s.fall, s.taken = b.Fall, b.Taken
			switch b.Kind {
			case isa.TermCond:
				s.aux = n
			case isa.TermIndirect:
				s.aux = int32(len(jumps))
				jumps = append(jumps, jump{targets: b.Targets, cum: img.decs[n].cum})
			case isa.TermCall:
				callee := img.fnByProc[b.Callee]
				auto, s.taken, s.aux = callee.Auto, callee.Proc.Entry(), int32(b.Callee)
			}
			s.head = uint32(b.Kind) | uint32(b.Body)<<stepBodyShift
			if auto {
				s.head |= stepAuto
			}
		}
		img.steps, img.jumps = steps, jumps
	})
}

// FnOf returns the modeled function owning the procedure.
func (img *Image) FnOf(id program.ProcID) *Fn { return img.fnByProc[id] }

// newImage returns an empty, unsealed image. decs[0] is the "no annotation"
// entry every unannotated block reads: an engine decision with no site.
func newImage(name string, textBase uint64, fns int) *Image {
	return &Image{
		Prog: program.New(name, textBase),
		Fns:  make(map[string]*Fn, fns),
		decs: make([]decision, 1),
	}
}

// Build lowers an image spec into a program plus emitter annotations.
func Build(spec ImageSpec) (*Image, error) {
	img := newImage(spec.Name, spec.TextBase, len(spec.Fns))
	// First pass: declare procedures so calls can resolve in any order.
	for _, fs := range spec.Fns {
		if _, dup := img.Fns[fs.Name]; dup {
			return nil, fmt.Errorf("codegen: duplicate function %q", fs.Name)
		}
		pr := img.Prog.AddProc(fs.Name)
		pr.Cold = fs.Cold
		fn := &Fn{Name: fs.Name, Auto: fs.Auto, Proc: pr}
		img.Fns[fs.Name] = fn
		img.fnByProc = append(img.fnByProc, fn)
	}
	// Second pass: lower bodies.
	for _, fs := range spec.Fns {
		lo := &lowerer{img: img, pr: img.Fns[fs.Name].Proc, auto: fs.Auto, fname: fs.Name}
		if err := lo.lowerFn(fs.Body); err != nil {
			return nil, err
		}
	}
	if err := img.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: lowered program invalid: %w", err)
	}
	if err := img.checkAutoClosure(); err != nil {
		return nil, err
	}
	return img, nil
}

// checkAutoClosure verifies auto functions only reach auto constructs.
func (img *Image) checkAutoClosure() error {
	for _, fn := range img.Fns {
		if !fn.Auto {
			continue
		}
		for _, bid := range fn.Proc.Blocks {
			b := img.Prog.Block(bid)
			switch b.Kind {
			case isa.TermCond:
				if n := img.noteOf(bid); n != 0 && !img.decs[n].auto {
					return fmt.Errorf("codegen: auto fn %q has engine site %q", fn.Name, img.decs[n].site)
				}
			case isa.TermCall:
				callee := img.FnOf(b.Callee)
				if !callee.Auto {
					return fmt.Errorf("codegen: auto fn %q calls engine fn %q", fn.Name, callee.Name)
				}
			}
		}
	}
	return nil
}

// lowerer lowers one function body.
type lowerer struct {
	img   *Image
	pr    *program.Procedure
	auto  bool
	fname string
	err   error
}

// patch is a pending successor assignment.
type patch func(program.BlockID)

func (lo *lowerer) newBlock() *program.Block {
	return lo.img.Prog.AddBlock(lo.pr, 0)
}

func (lo *lowerer) fail(format string, args ...interface{}) {
	if lo.err == nil {
		lo.err = fmt.Errorf("codegen: fn %q: "+format, append([]interface{}{lo.fname}, args...)...)
	}
}

// lowerFn lowers the whole body and seals every exit with a return block.
func (lo *lowerer) lowerFn(body []Frag) error {
	entry, exits := lo.region(body)
	_ = entry // the first created block is the proc entry by construction
	if len(exits) > 0 {
		ret := lo.newBlock()
		ret.Kind = isa.TermRet
		for _, p := range exits {
			p(ret.ID)
		}
	}
	return lo.err
}

// region lowers a fragment list into fresh blocks. It returns the region's
// entry block and the patches for every exit that should continue at
// whatever follows the region.
func (lo *lowerer) region(frags []Frag) (program.BlockID, []patch) {
	open := lo.newBlock()
	entry := open.ID

	// seal closes the open block with the given terminator, returning it.
	// After sealing, callers must either set open to a new block or finish.
	for _, f := range frags {
		if lo.err != nil {
			return entry, nil
		}
		switch fr := f.(type) {
		case Seq:
			if fr < 0 {
				lo.fail("negative Seq")
				return entry, nil
			}
			open.Body += int32(fr)

		case If:
			open = lo.lowerIf(open, fr.Site, 0, fr.Then, fr.Else)

		case AutoIf:
			open = lo.lowerIf(open, "", fr.Prob, fr.Then, fr.Else)

		case Loop:
			open = lo.lowerLoop(open, fr.Site, 0, fr.Head, fr.Body)

		case AutoLoop:
			if fr.Prob < 0 || fr.Prob >= 1 {
				lo.fail("AutoLoop prob %v outside [0,1)", fr.Prob)
				return entry, nil
			}
			open = lo.lowerLoop(open, "", fr.Prob, fr.Head, fr.Body)

		case Call:
			open.Kind = isa.TermCall
			callee, ok := lo.img.Fns[fr.Fn]
			if !ok {
				lo.fail("call to unknown fn %q", fr.Fn)
				return entry, nil
			}
			open.Callee = callee.Proc.ID
			cont := lo.newBlock()
			open.Fall = cont.ID
			open = cont

		case AutoPick:
			if len(fr.Fns) == 0 {
				lo.fail("empty AutoPick")
				return entry, nil
			}
			open = lo.lowerPick(open, fr.Fns, fr.Weights)

		default:
			lo.fail("unknown fragment %T", f)
			return entry, nil
		}
	}
	// The open block is the region's exit.
	open.Kind = isa.TermFallThrough
	id := open.ID
	return entry, []patch{func(b program.BlockID) { lo.img.Prog.Block(id).Fall = b }}
}

func (lo *lowerer) lowerIf(open *program.Block, site string, prob float64, then, els []Frag) *program.Block {
	if site != "" && lo.auto {
		lo.fail("engine If %q inside auto fn", site)
		return open
	}
	open.Kind = isa.TermCond
	cond := open.ID
	thenE, thenX := lo.region(then)
	lo.img.Prog.Block(cond).Fall = thenE
	var elseX []patch
	var pending []patch
	if len(els) > 0 {
		elseE, x := lo.region(els)
		lo.img.Prog.Block(cond).Taken = elseE
		elseX = x
	} else {
		id := cond
		pending = append(pending, func(b program.BlockID) { lo.img.Prog.Block(id).Taken = b })
	}
	join := lo.newBlock()
	for _, p := range thenX {
		p(join.ID)
	}
	for _, p := range elseX {
		p(join.ID)
	}
	for _, p := range pending {
		p(join.ID)
	}
	// Degenerate conditional guard: with an empty Then region, the then
	// entry is an empty fall block, distinct from join, so Taken != Fall
	// always holds here by construction.
	lo.img.annotate(cond, decision{site: site, auto: site == "", prob: prob})
	return join
}

func (lo *lowerer) lowerLoop(open *program.Block, site string, prob float64, headWords int, body []Frag) *program.Block {
	if site != "" && lo.auto {
		lo.fail("engine Loop %q inside auto fn", site)
		return open
	}
	head := lo.newBlock()
	head.Body = int32(headWords)
	head.Kind = isa.TermCond
	open.Kind = isa.TermFallThrough
	open.Fall = head.ID
	headID := head.ID
	bodyE, bodyX := lo.region(body)
	lo.img.Prog.Block(headID).Fall = bodyE
	for _, p := range bodyX {
		p(headID) // back edge
	}
	join := lo.newBlock()
	lo.img.Prog.Block(headID).Taken = join.ID
	lo.img.annotate(headID, decision{site: site, auto: site == "", prob: prob})
	return join
}

// lowerPick lowers an AutoPick: an indirect call dispatch through one call
// stub per target function, weighted for the PRNG.
func (lo *lowerer) lowerPick(open *program.Block, fns []string, weights []uint32) *program.Block {
	open.Kind = isa.TermIndirect
	sw := open.ID
	join := lo.newBlock()
	if weights != nil && len(weights) != len(fns) {
		lo.fail("AutoPick weights/fns mismatch")
		return join
	}
	var cum []uint32
	var acc uint32
	for i, name := range fns {
		callee, ok := lo.img.Fns[name]
		if !ok {
			lo.fail("AutoPick of unknown fn %q", name)
			return join
		}
		stub := lo.newBlock()
		stub.Kind = isa.TermCall
		stub.Callee = callee.Proc.ID
		stub.Fall = join.ID
		lo.img.Prog.Block(sw).Targets = append(lo.img.Prog.Block(sw).Targets, stub.ID)
		w := uint32(1)
		if weights != nil {
			w = weights[i]
		}
		acc += w
		cum = append(cum, acc)
	}
	lo.img.annotate(sw, decision{auto: true, cum: cum})
	return join
}
