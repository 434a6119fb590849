package codegen

import (
	"fmt"

	"codelayout/internal/cache"
	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// Front is the fetch front end of one CPU, as data the walk updates itself:
// every emitter that fetches on the CPU (its processes' and its kernel's)
// points at the same Front, so a run costs the walk a few loads and stores
// and no call out of the package.
type Front struct {
	// Clock is the CPU's time in instruction-times: every fetched word
	// advances it by one, every L1I miss by Penalty.
	Clock uint64
	// Wake is the clock value (the next timer interrupt) at which an emitter
	// with an Attention callback calls it.
	Wake uint64
	// Stall is the running total of miss penalties charged to Clock.
	Stall uint64
	// Penalty is the stall one L1I miss charges; L1I is the CPU's inline
	// instruction cache, nil when fetch stalls are not modeled.
	Penalty uint64
	L1I     *cache.Pair
}

// Collector receives logical block transitions (the Pixie instrumentation
// hook). prev is NoBlock at top-level entries.
type Collector interface {
	Block(prev, cur program.BlockID)
}

// Emitter replays engine events over the image's CFG under a specific
// layout, producing the instruction address runs the modeled binary would
// fetch. It implements probe.Probe: Enter/Leave/Branch drive the walk, Data
// is forwarded to a machine hook.
//
// The emitter is a resumable CFG walker: it auto-advances through
// straight-line code, PRNG-resolved branches and auto-function calls, and
// stops exactly at the blocks whose outcome the engine must report. A
// mismatch between the engine's events and the model's structure panics with
// a diagnostic, so model drift is caught immediately in tests.
//
// The walk is a table walk: a block exit reads the image's steps[id] and the
// layout's Place[id], nothing else. It emits one run per block exit and never
// merges address-adjacent runs, because the machine hangs timer interrupts,
// quantum expiry and the measuring gate on run boundaries.
//
// A run is, in this order: Front.Clock and Budget move by its words; the
// Front's L1I is probed and its misses stall the clock; Sink sees the run;
// Attention is called if the clock reached Front.Wake or Budget ran out. Only
// then does the walk arrive at the successor and report the transition to
// Collector — a process that yields inside Attention reports it after it
// resumes.
//
// With nothing attached, the common block exit calls nothing: the PRNG is a
// concrete copy of math/rand's source whose draw inlines, and the L1I is
// asked Pair.Hit inline and Pair.Misses only when that is false.
type Emitter struct {
	// Sink, if non-nil, receives each fetched address run.
	Sink func(addr uint64, words int32)
	// Front is the front end the runs are fetched through. NewEmitter gives
	// the emitter one of its own (no cache, a clock nobody reads); the machine
	// points the emitters of a CPU at that CPU's.
	Front *Front
	// Budget is the emitter's scheduling quantum: every fetched word takes one
	// from it.
	Budget int64
	// Attention, if non-nil, is called after a run that left Front.Clock at or
	// past Front.Wake, or Budget at or below zero, and again after every run
	// while either still holds.
	Attention func()
	// Collector, if non-nil, receives exact block/edge counts (Pixie).
	Collector Collector
	// OnData forwards the probe's data references.
	OnData func(addr uint64, bytes int, write bool)

	// rng resolves auto branches, loops and picks: the draws of
	// rand.New(rand.NewSource(seed)), without a call per draw.
	rng walkRand

	img   *Image
	steps []step          // img.steps
	decs  []decision      // img.decs
	place []program.Place // l.Place

	stack []eframe
	cur   program.BlockID

	// unwinding suppresses probe events while a transaction-abort longjmp
	// (db.ErrDeadlock) propagates through instrumented frames whose
	// deferred Leave calls would otherwise fire mid-model; Reset re-arms.
	unwinding bool

	// Instructions counts every word the emitter fetched since it was made,
	// with a Sink attached or not.
	Instructions uint64
}

// eframe is one in-flight function. Its name (what Leave must be called
// with) is derived on demand: see frameName.
type eframe struct {
	fn        program.ProcID
	auto      bool
	callBlock program.BlockID
	cont      program.BlockID
}

// maxAutoDepth bounds auto-call recursion; the generated libraries are DAGs,
// so hitting it means a model bug.
const maxAutoDepth = 512

// NewEmitter creates an emitter over the image and layout, which must be of
// the same program. The first emitter over an image seals it (see Image).
func NewEmitter(img *Image, l *program.Layout, seed int64) *Emitter {
	img.seal()
	e := &Emitter{
		Front: new(Front),
		img:   img,
		steps: img.steps,
		decs:  img.decs,
		cur:   program.NoBlock,
	}
	e.rng.seed(seed)
	e.SetLayout(l)
	return e
}

// Idle reports whether the emitter has no in-flight function.
func (e *Emitter) Idle() bool { return e.cur == program.NoBlock && len(e.stack) == 0 }

// SetLayout swaps the emitter onto a new layout of the same program — the
// machine's epoch-fenced hot-swap point. Mid-function the walker's notion of
// "current address" would go stale, so the emitter must be idle (between
// transactions); swapping while busy is a scheduling bug and panics.
func (e *Emitter) SetLayout(l *program.Layout) {
	if !e.Idle() {
		panic("codegen: SetLayout while a function is in flight")
	}
	if l.Prog != e.img.Prog {
		panic("codegen: SetLayout with a layout of a different program")
	}
	e.place = l.Place
}

// AbortUnwind implements probe.Probe: it suppresses all probe events until
// Reset, modeling the engine's longjmp out of a deadlock victim — the
// deferred Leave calls that run while the panic propagates reflect Go stack
// unwinding, not modeled instruction fetch.
func (e *Emitter) AbortUnwind() { e.unwinding = true }

// Reset abandons any in-flight function and re-arms event delivery. The
// machine calls it after recovering a deadlock-victim panic, before
// replaying the abort path (txn_abort) from idle.
func (e *Emitter) Reset() {
	e.unwinding = false
	e.stack = e.stack[:0]
	e.cur = program.NoBlock
}

// emit fetches one run. advance carries the same lines in its loop for the
// exits it resolves itself; the order of the steps is the Emitter's contract.
func (e *Emitter) emit(addr uint64, words int32) {
	if words <= 0 {
		return
	}
	e.Instructions += uint64(words)
	f := e.Front
	f.Clock += uint64(words)
	e.Budget -= int64(words)
	if l1 := f.L1I; l1 != nil && !l1.Hit(addr, words) {
		if miss := l1.Misses(addr, words); miss > 0 {
			stall := uint64(miss) * f.Penalty
			f.Clock += stall
			f.Stall += stall
		}
	}
	if e.Sink != nil {
		e.Sink(addr, words)
	}
	if e.Attention != nil && (f.Clock >= f.Wake || e.Budget <= 0) {
		e.Attention()
	}
}

// transition emits block id's run of words words at addr and arrives at succ.
func (e *Emitter) transition(id program.BlockID, addr uint64, words int32, succ program.BlockID) {
	e.emit(addr, words)
	e.cur = succ
	if succ != program.NoBlock && e.Collector != nil {
		e.Collector.Block(id, succ)
	}
}

// exitTo leaves block id for succ by the exit the layout's Fall bits price:
// the Fall successor, or the single way out of a return, indirect jump or
// halt. exitTaken leaves by the Taken successor.
func (e *Emitter) exitTo(id program.BlockID, s *step, succ program.BlockID) {
	w := e.place[id]
	e.transition(id, w.Addr(), s.body()+w.Exit().Fall(), succ)
}

func (e *Emitter) exitTaken(id program.BlockID, s *step) {
	w := e.place[id]
	e.transition(id, w.Addr(), s.body()+w.Exit().Taken(), s.taken)
}

// enterCall emits call block id's run and pushes the callee frame.
func (e *Emitter) enterCall(id program.BlockID, s *step) {
	w := e.place[id]
	e.emit(w.Addr(), s.body()+w.Exit().Fall())
	e.stack = append(e.stack, eframe{
		fn:        program.ProcID(s.aux),
		auto:      s.auto(),
		callBlock: id,
		cont:      s.fall,
	})
	entry := s.taken
	e.cur = entry
	if e.Collector != nil {
		e.Collector.Block(id, entry) // call edge
	}
}

// popRet emits return block id's run, pops the frame, and resumes at the
// continuation (through the landing branch if the layout needed one).
func (e *Emitter) popRet(id program.BlockID, s *step) {
	w := e.place[id]
	e.emit(w.Addr(), s.body()+w.Exit().Fall())
	f := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if f.cont == program.NoBlock {
		// Top-level return: go idle.
		e.cur = program.NoBlock
		return
	}
	if call := e.place[f.callBlock]; call.Exit().Landing() {
		// Block layout: [body][call][landing branch].
		e.emit(call.Addr()+uint64(e.steps[f.callBlock].body()+1)*isa.WordBytes, 1)
	}
	e.cur = f.cont
	if e.Collector != nil {
		e.Collector.Block(f.callBlock, f.cont) // continuation edge
	}
}

// advance walks the CFG until it needs an engine event (or goes idle). The
// straight-line exits — fall-through, branch, a conditional the PRNG resolves
// — are most of every walk, and their run is fetched here in the loop: one
// steps row, one placement word, the Front, and no call unless a Sink or a
// Collector is attached or the run needs Attention.
func (e *Emitter) advance() {
	f := e.Front
	for e.cur != program.NoBlock {
		id := e.cur
		s := &e.steps[id]
		w := e.place[id]
		var words int32
		var succ program.BlockID
		switch s.kind() {
		case isa.TermFallThrough:
			words, succ = w.Exit().Fall(), s.fall
		case isa.TermBranch:
			words, succ = w.Exit().Taken(), s.taken
		case isa.TermCond:
			if !s.auto() {
				return // wait for Branch
			}
			u, ok := e.rng.float64Fast()
			if !ok {
				u = e.rng.Float64()
			}
			if u < e.decs[s.aux].prob {
				words, succ = w.Exit().Fall(), s.fall
			} else {
				words, succ = w.Exit().Taken(), s.taken
			}
		case isa.TermIndirect:
			j := &e.img.jumps[s.aux]
			x := uint32(e.rng.Int63n(int64(j.cum[len(j.cum)-1])))
			k := 0
			for j.cum[k] <= x {
				k++
			}
			e.exitTo(id, s, j.targets[k])
			continue
		case isa.TermCall:
			if !s.auto() {
				return // wait for Enter
			}
			if len(e.stack) >= maxAutoDepth {
				panic(fmt.Sprintf("codegen: auto call depth exceeded at %s", e.img.fnByProc[s.aux].Name))
			}
			e.enterCall(id, s)
			continue
		case isa.TermRet:
			if len(e.stack) == 0 {
				e.exitTo(id, s, program.NoBlock)
				return
			}
			if !e.stack[len(e.stack)-1].auto {
				return // wait for Leave
			}
			e.popRet(id, s)
			continue
		case isa.TermHalt:
			e.exitTo(id, s, program.NoBlock)
			return
		}
		if words += s.body(); words > 0 {
			e.Instructions += uint64(words)
			f.Clock += uint64(words)
			e.Budget -= int64(words)
			addr := w.Addr()
			if l1 := f.L1I; l1 != nil && !l1.Hit(addr, words) {
				if miss := l1.Misses(addr, words); miss > 0 {
					stall := uint64(miss) * f.Penalty
					f.Clock += stall
					f.Stall += stall
				}
			}
			if e.Sink != nil {
				e.Sink(addr, words)
			}
			if e.Attention != nil && (f.Clock >= f.Wake || e.Budget <= 0) {
				e.Attention()
			}
		}
		e.cur = succ
		if succ != program.NoBlock && e.Collector != nil {
			e.Collector.Block(id, succ)
		}
	}
}

// enterTop starts f's frame from idle. auto says who ends it: the walk
// itself (RunAuto) or the engine's Leave.
func (e *Emitter) enterTop(f *Fn, auto bool) {
	e.stack = append(e.stack, eframe{fn: f.Proc.ID, auto: auto, callBlock: program.NoBlock, cont: program.NoBlock})
	e.cur = f.Proc.Entry()
	if e.Collector != nil {
		e.Collector.Block(program.NoBlock, e.cur)
	}
	e.advance()
}

// Enter implements the probe event: the engine entered fn.
func (e *Emitter) Enter(fn string) {
	if e.unwinding {
		return
	}
	if e.cur != program.NoBlock {
		// Mid-model the call block says who is being entered; fn is looked
		// up by name only when it is not that function. A fused image may
		// have rewired the call to a per-kind clone; the clone replays the
		// original's events, so entering it under the original name is the
		// expected path.
		if s := &e.steps[e.cur]; s.kind() == isa.TermCall {
			if callee := e.img.fnByProc[s.aux]; callee.Name == fn || callee.EventName() == fn {
				e.enterCall(e.cur, s)
				e.advance()
				return
			}
		}
	}
	f, ok := e.img.Fns[fn]
	if !ok {
		panic(fmt.Sprintf("codegen: Enter(%q): unknown function", fn))
	}
	if e.cur == program.NoBlock {
		// Top-level entry (transaction driver).
		e.enterTop(f, false)
		return
	}
	s := &e.steps[e.cur]
	if s.kind() != isa.TermCall {
		panic(fmt.Sprintf("codegen: Enter(%q) but model at %s block b%d of %s",
			fn, s.kind(), e.cur, e.frameName()))
	}
	panic(fmt.Sprintf("codegen: Enter(%q) but model expects call to %q", fn, e.img.fnByProc[s.aux].Name))
}

// Leave implements the probe event: the engine returned from fn.
func (e *Emitter) Leave(fn string) {
	if e.unwinding {
		return
	}
	if len(e.stack) == 0 {
		panic(fmt.Sprintf("codegen: Leave(%q) with empty stack", fn))
	}
	if top := e.frameName(); top != fn {
		panic(fmt.Sprintf("codegen: Leave(%q) but current frame is %q", fn, top))
	}
	s := &e.steps[e.cur]
	if s.kind() != isa.TermRet {
		panic(fmt.Sprintf("codegen: Leave(%q) but model at %s block b%d (missing events?)",
			fn, s.kind(), e.cur))
	}
	e.popRet(e.cur, s)
	e.advance()
}

// Branch implements the probe event for If and Loop sites.
func (e *Emitter) Branch(site string, taken bool) {
	if e.unwinding {
		return
	}
	s := e.siteStep(site)
	if taken {
		e.exitTo(e.cur, s, s.fall)
	} else {
		e.exitTaken(e.cur, s)
	}
	e.advance()
}

// Data forwards a data reference to the machine hook.
func (e *Emitter) Data(addr uint64, bytes int, write bool) {
	if e.unwinding {
		return
	}
	if e.OnData != nil {
		e.OnData(addr, bytes, write)
	}
}

// RunAuto executes an auto function to completion from idle (used for the
// kernel image, whose services have no engine instrumentation).
func (e *Emitter) RunAuto(fn string) {
	f, ok := e.img.Fns[fn]
	if !ok {
		panic(fmt.Sprintf("codegen: RunAuto(%q): unknown function", fn))
	}
	if !f.Auto {
		panic(fmt.Sprintf("codegen: RunAuto(%q): not an auto function", fn))
	}
	if e.cur != program.NoBlock {
		panic(fmt.Sprintf("codegen: RunAuto(%q) while busy", fn))
	}
	e.enterTop(f, true)
	if e.cur != program.NoBlock || len(e.stack) != 0 {
		panic(fmt.Sprintf("codegen: RunAuto(%q) did not run to completion", fn))
	}
}

// siteStep returns the current block's step after checking that it is the
// Cond block, at the site, the engine's Branch names.
func (e *Emitter) siteStep(site string) *step {
	if e.cur == program.NoBlock {
		panic(fmt.Sprintf("codegen: event at site %q while idle", site))
	}
	s := &e.steps[e.cur]
	at := ""
	if s.kind() == isa.TermCond {
		at = e.decs[s.aux].site
	}
	if s.kind() != isa.TermCond || at != site {
		panic(fmt.Sprintf("codegen: event for site %q but model at %s block b%d (site %q) in %s",
			site, s.kind(), e.cur, at, e.frameName()))
	}
	return s
}

// frameName returns the name the innermost frame answers to: the name a
// top-level frame was entered by, the callee's event name for a call.
func (e *Emitter) frameName() string {
	if len(e.stack) == 0 {
		return "<no frame>"
	}
	f := e.stack[len(e.stack)-1]
	fn := e.img.fnByProc[f.fn]
	if f.callBlock == program.NoBlock {
		return fn.Name
	}
	return fn.EventName()
}
