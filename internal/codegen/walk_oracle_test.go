package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"codelayout/internal/cache"
	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// refWalker is the map-and-pointer walker the table walk replaced, kept as
// the reference the emitter is held to: annotations in Go maps keyed by
// block, *program.Block chased per step, run lengths asked of
// Layout.ExecWords and Layout.LandingRun. It has the emitter's semantics and
// none of its diagnostics. Its front end is the per-run callback path the
// emitter's Front replaced (refFront, called from emit after the sink).
type refWalker struct {
	img      *Image
	l        *program.Layout
	rng      *rand.Rand
	site     map[program.BlockID]string
	autoProb map[program.BlockID]float64
	autoCum  map[program.BlockID][]uint32
	sink     func(addr uint64, words int32)
	block    func(prev, cur program.BlockID)
	stack    []refFrame
	cur      program.BlockID
	instr    uint64
	front    *refFront
}

// frontShape is one drawn front end: a timer period, a quantum, a miss
// penalty over a small two-way L1I, and the seed of the coin that decides
// whether an expired quantum is re-armed (a process inside a critical section
// keeps running on an empty budget, and is asked again after every run).
type frontShape struct {
	interval, penalty uint64
	quantum           int64
	coin              int64
}

const frontCacheBytes, frontLineBytes = 1 << 10, 32

func randFrontShape(r *rand.Rand) frontShape {
	return frontShape{
		interval: uint64(1 + r.Intn(200)),
		penalty:  uint64(r.Intn(3) * 20),
		quantum:  int64(1 + r.Intn(300)),
		coin:     r.Int63(),
	}
}

// refFront is the reference front end: the clock, quantum, timer and general
// ICache of the machine's old appFetch, in its order.
type refFront struct {
	shape       frontShape
	clock, wake uint64
	stall       uint64
	budget      int64
	l1i         *cache.ICache
	coin        *rand.Rand
	attended    func(clock uint64)
}

func newRefFront(shape frontShape, attended func(clock uint64)) *refFront {
	return &refFront{
		shape: shape, wake: shape.interval, budget: shape.quantum, attended: attended,
		l1i:  cache.New(cache.Config{SizeBytes: frontCacheBytes, LineBytes: frontLineBytes, Assoc: 2}),
		coin: rand.New(rand.NewSource(shape.coin)),
	}
}

func (f *refFront) fetch(addr uint64, words int32) {
	f.clock += uint64(words)
	f.budget -= int64(words)
	if miss := f.l1i.FetchWords(addr, words, false); miss > 0 {
		f.clock += uint64(miss) * f.shape.penalty
		f.stall += uint64(miss) * f.shape.penalty
	}
}

// check is the tail of appFetch: the timer, then the quantum.
func (f *refFront) check() {
	timer, quantum := f.clock >= f.wake, f.budget <= 0
	if !timer && !quantum {
		return
	}
	f.attended(f.clock)
	if timer {
		f.wake += f.shape.interval
	}
	if quantum && f.coin.Intn(2) == 0 {
		f.budget = f.shape.quantum
	}
}

// attachFront gives the emitter the same front end as data: a Front with the
// pair cache, a Budget, and an Attention callback that re-arms as refFront.check
// does.
func attachFront(e *Emitter, shape frontShape, attended func(clock uint64)) {
	f := &Front{Wake: shape.interval, Penalty: shape.penalty, L1I: cache.NewPair(frontCacheBytes, frontLineBytes)}
	e.Front, e.Budget = f, shape.quantum
	coin := rand.New(rand.NewSource(shape.coin))
	e.Attention = func() {
		attended(f.Clock)
		if f.Clock >= f.Wake {
			f.Wake += shape.interval
		}
		if e.Budget <= 0 && coin.Intn(2) == 0 {
			e.Budget = shape.quantum
		}
	}
}

type refFrame struct {
	name      string
	auto      bool
	callBlock program.BlockID
	cont      program.BlockID
}

func newRefWalker(img *Image, l *program.Layout, rng *rand.Rand) *refWalker {
	w := &refWalker{img: img, l: l, rng: rng, cur: program.NoBlock,
		site:     map[program.BlockID]string{},
		autoProb: map[program.BlockID]float64{},
		autoCum:  map[program.BlockID][]uint32{},
	}
	for _, b := range img.Prog.Blocks {
		switch d := img.decs[img.noteOf(b.ID)]; {
		case !d.auto:
			w.site[b.ID] = d.site
		case b.Kind == isa.TermCond:
			w.autoProb[b.ID] = d.prob
		case b.Kind == isa.TermIndirect:
			w.autoCum[b.ID] = d.cum
		}
	}
	return w
}

func (w *refWalker) emit(addr uint64, words int32) {
	if words > 0 {
		w.instr += uint64(words)
		w.front.fetch(addr, words)
		w.sink(addr, words)
		w.front.check()
	}
}

func (w *refWalker) transition(b *program.Block, succ program.BlockID) {
	w.emit(w.l.Addr(b.ID), w.l.ExecWords(b, succ))
	w.cur = succ
	if succ != program.NoBlock {
		w.block(b.ID, succ)
	}
}

func (w *refWalker) enterCall(b *program.Block) {
	callee := w.img.FnOf(b.Callee)
	w.emit(w.l.Addr(b.ID), w.l.ExecWords(b, b.Fall))
	w.stack = append(w.stack, refFrame{callee.EventName(), callee.Auto, b.ID, b.Fall})
	w.cur = callee.Proc.Entry()
	w.block(b.ID, w.cur)
}

func (w *refWalker) popRet(b *program.Block) {
	w.emit(w.l.Addr(b.ID), w.l.ExecWords(b, program.NoBlock))
	f := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	if w.cur = f.cont; f.cont == program.NoBlock {
		return
	}
	if addr, words, ok := w.l.LandingRun(f.callBlock); ok {
		w.emit(addr, words)
	}
	w.block(f.callBlock, f.cont)
}

func (w *refWalker) advance() {
	for w.cur != program.NoBlock {
		b := w.img.Prog.Block(w.cur)
		switch b.Kind {
		case isa.TermFallThrough:
			w.transition(b, b.Fall)
		case isa.TermBranch:
			w.transition(b, b.Taken)
		case isa.TermCond:
			p, auto := w.autoProb[b.ID]
			if !auto {
				return
			}
			if w.rng.Float64() < p {
				w.transition(b, b.Fall)
			} else {
				w.transition(b, b.Taken)
			}
		case isa.TermIndirect:
			cum := w.autoCum[b.ID]
			x := uint32(w.rng.Int63n(int64(cum[len(cum)-1])))
			w.transition(b, b.Targets[sort.Search(len(cum), func(i int) bool { return cum[i] > x })])
		case isa.TermCall:
			if !w.img.FnOf(b.Callee).Auto {
				return
			}
			if len(w.stack) >= maxAutoDepth {
				panic(fmt.Sprintf("codegen: auto call depth exceeded at %s", w.img.FnOf(b.Callee).Name))
			}
			w.enterCall(b)
		case isa.TermRet:
			if len(w.stack) == 0 {
				w.transition(b, program.NoBlock)
				return
			}
			if !w.stack[len(w.stack)-1].auto {
				return
			}
			w.popRet(b)
		case isa.TermHalt:
			w.transition(b, program.NoBlock)
			return
		}
	}
}

// The event half, as the emitter's: each checks nothing and moves on.

func (w *refWalker) enterTop(fn string, auto bool) {
	w.stack = append(w.stack, refFrame{fn, auto, program.NoBlock, program.NoBlock})
	w.cur = w.img.Fns[fn].Proc.Entry()
	w.block(program.NoBlock, w.cur)
	w.advance()
}

func (w *refWalker) Enter(fn string) {
	if w.cur == program.NoBlock {
		w.enterTop(fn, false)
		return
	}
	w.enterCall(w.img.Prog.Block(w.cur))
	w.advance()
}

func (w *refWalker) Leave(string) { w.popRet(w.img.Prog.Block(w.cur)); w.advance() }

func (w *refWalker) Branch(_ string, taken bool) {
	b := w.img.Prog.Block(w.cur)
	if taken {
		w.transition(b, b.Fall)
	} else {
		w.transition(b, b.Taken)
	}
	w.advance()
}

func (w *refWalker) RunAuto(fn string) { w.enterTop(fn, true) }

// ---- generated images, layouts and engines ----

// randAnnotatedImage wraps a random program in an image: every procedure a
// function (auto or engine-driven at random), every Cond block either an
// engine site or a PRNG decision, every Indirect block a weighted PRNG
// dispatch. Build's closure rule (auto code
// reaches only auto code) is deliberately not kept: the walkers must agree on
// anything the table can express.
func randAnnotatedImage(r *rand.Rand, p *program.Program) *Image {
	img := newImage(p.Name, p.TextBase, len(p.Procs))
	img.Prog = p
	for _, pr := range p.Procs {
		fn := &Fn{Name: pr.Name, Auto: r.Intn(3) > 0, Proc: pr}
		img.Fns[fn.Name] = fn
		img.fnByProc = append(img.fnByProc, fn)
	}
	for _, b := range p.Blocks {
		site := fmt.Sprintf("site%d", b.ID)
		switch {
		case b.Kind == isa.TermCond && r.Intn(4) > 0:
			img.annotate(b.ID, decision{auto: true, prob: r.Float64()})
		case b.Kind == isa.TermCond && r.Intn(4) > 0:
			img.annotate(b.ID, decision{site: site})
		case b.Kind == isa.TermIndirect:
			cum := make([]uint32, len(b.Targets))
			var acc uint32
			for i := range cum {
				acc += uint32(r.Intn(5)) // zero weights included
				cum[i] = acc
			}
			if acc == 0 {
				cum[len(cum)-1] = 1
			}
			img.annotate(b.ID, decision{auto: true, cum: cum})
		}
		// The rest of the Cond blocks stay unannotated: engine decisions with
		// an empty site.
	}
	return img
}

// fuse returns a Specialize copy with one procedure cloned and every call
// from procedure 0 to it rewired onto the clone, as txfuse does.
func fuse(t testing.TB, r *rand.Rand, img *Image) *Image {
	out := img.Specialize()
	victim := program.ProcID(r.Intn(len(out.Prog.Procs)))
	notes := append([]int32(nil), img.note...)
	clone, err := out.CloneProc(victim, "k")
	if err != nil {
		t.Fatal(err)
	}
	// The copy shares the original's annotation arrays until it grows.
	if !reflect.DeepEqual(img.note, notes) || len(img.Prog.Blocks) == len(out.Prog.Blocks) {
		t.Fatal("CloneProc on a Specialize copy reached the original image")
	}
	for _, id := range out.Prog.Procs[0].Blocks {
		if b := out.Prog.Block(id); b.Kind == isa.TermCall && b.Callee == victim {
			b.Callee = clone
		}
	}
	if err := out.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// randLayout materializes a random placement: shuffled or source order,
// aligned or not, gaps before some blocks, and a random hotness so branch
// pairs test either arm first. Shuffling yields landing branches and branch
// pairs; source order yields elided and flipped terminators.
func randLayout(t testing.TB, r *rand.Rand, p *program.Program) *program.Layout {
	order := program.SourceOrder(p)
	if r.Intn(3) > 0 {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	opts := program.MaterializeOptions{AlignWords: 4 * r.Intn(2)}
	if r.Intn(2) == 0 {
		// Gaps go where CFA puts them: before alignment-unit starts (the first
		// block of each procedure in placement order), never inside a
		// fall-through chain.
		opts.GapBefore = map[program.BlockID]uint64{}
		seen := make([]bool, len(p.Procs))
		for _, id := range order {
			if pr := p.Blocks[id].Proc; !seen[pr] {
				seen[pr] = true
				if r.Intn(2) == 0 {
					opts.GapBefore[id] = uint64(1+r.Intn(64)) * isa.WordBytes
				}
			}
		}
	}
	if r.Intn(2) == 0 {
		hot := make([]uint64, len(order))
		for i := range hot {
			hot[i] = uint64(r.Intn(4))
		}
		opts.FallFirst = func(b *program.Block) bool { return hot[b.Fall] > hot[b.Taken] }
	}
	l, err := program.Materialize(p, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// walker is what the scripted engine drives: the emitter, or the reference.
type walker interface {
	Enter(fn string)
	Leave(fn string)
	Branch(site string, taken bool)
	RunAuto(fn string)
}

// countingSource counts the reference walker's draws from math/rand. The
// emitter's count is its generator's own (walkRand.draws), so nothing is
// added to its walk to count them.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// walkLog is everything one walk did that the other must repeat. Attn holds,
// per attention call, how many runs and how many block transitions had been
// reported when it came (the run that raised it is in, its transition is not)
// and the clock it came at.
type walkLog struct {
	Runs   [][2]uint64 // addr, words
	Blocks [][2]program.BlockID
	Attn   [][3]uint64 // runs, transitions, clock
	Instr  uint64
	Draws  int
	Ended  string // how the walk stopped: "" or the panic it raised
	// Front state when the walk stopped.
	Clock, Wake, Stall uint64
	Budget             int64
}

func (log *walkLog) attended(clock uint64) {
	log.Attn = append(log.Attn, [3]uint64{uint64(len(log.Runs)), uint64(len(log.Blocks)), clock})
}

const walkBudget = 4000 // block events per walk; random CFGs loop forever

type budgetExceeded struct{}

// playEngine runs one engine session against w: enter every procedure from
// idle (RunAuto for auto ones) and answer each stop of the model — a site, a
// call to an engine function, a return to one — with the event it waits
// for, outcomes drawn from eng. state reports the walker's current block and
// innermost frame name.
func playEngine(img *Image, w walker, state func() (program.BlockID, string), eng *rand.Rand) {
	closed := autoClosed(img)
	for _, pr := range img.Prog.Procs {
		if closed[pr.ID] && eng.Intn(2) == 0 {
			w.RunAuto(pr.Name)
		} else {
			w.Enter(pr.Name)
		}
		for {
			cur, frame := state()
			if cur == program.NoBlock {
				break
			}
			b := img.Prog.Block(cur)
			site := img.decs[img.noteOf(cur)].site
			switch b.Kind {
			case isa.TermCond:
				w.Branch(site, eng.Intn(2) == 0)
			case isa.TermCall:
				w.Enter(img.FnOf(b.Callee).EventName())
			case isa.TermRet:
				w.Leave(frame)
			default:
				panic(fmt.Sprintf("walker stopped at %s block b%d, which waits for nothing", b.Kind, cur))
			}
		}
	}
}

// autoClosed reports, per procedure, whether RunAuto can run it to
// completion: an auto function reaching only PRNG decisions and other such
// functions (the rule Build enforces and randAnnotatedImage does not).
func autoClosed(img *Image) []bool {
	closed := make([]bool, len(img.Prog.Procs))
	for id := range closed {
		closed[id] = img.fnByProc[id].Auto
	}
	for changed := true; changed; {
		changed = false
		for _, b := range img.Prog.Blocks {
			open := false
			switch b.Kind {
			case isa.TermCond:
				open = !img.decs[img.noteOf(b.ID)].auto
			case isa.TermCall:
				open = !closed[b.Callee]
			}
			if open && closed[b.Proc] {
				closed[b.Proc], changed = false, true
			}
		}
	}
	return closed
}

// logged runs play under the budget and records what came out.
func logged(draws func() int, instr func() uint64, play func(log *walkLog, sink func(uint64, int32), block func(prev, cur program.BlockID))) (log walkLog) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case budgetExceeded:
			log.Ended = "budget"
		default:
			log.Ended = fmt.Sprint(r)
		}
		log.Instr, log.Draws = instr(), draws()
	}()
	play(&log, func(addr uint64, words int32) {
		log.Runs = append(log.Runs, [2]uint64{addr, uint64(words)})
	}, func(prev, cur program.BlockID) {
		if len(log.Blocks) >= walkBudget {
			panic(budgetExceeded{})
		}
		log.Blocks = append(log.Blocks, [2]program.BlockID{prev, cur})
	})
	return log
}

type collectorFunc func(prev, cur program.BlockID)

func (f collectorFunc) Block(prev, cur program.BlockID) { f(prev, cur) }

// checkWalk is the oracle: over the random program progSeed generates —
// plain and fused — under the random layout layoutSeed generates, the table
// walk and the reference walker, given the same PRNG seed and the same
// engine, produce the same fetch runs, the same Collector calls, the same
// instruction count and the same number of PRNG draws, and end the same way —
// and, fetching through a drawn front end (the emitter's Front against the
// reference's per-run callback), ask for attention after the same runs, before
// the same transitions, at the same clocks, and leave the same clock, timer,
// stall total and budget behind.
func checkWalk(t testing.TB, progSeed, layoutSeed, walkSeed int64) {
	r := rand.New(rand.NewSource(progSeed))
	base := randAnnotatedImage(r, progtest.RandProgram(r, 1+r.Intn(5)))
	for _, img := range []*Image{base, fuse(t, r, base)} {
		l := randLayout(t, rand.New(rand.NewSource(layoutSeed)), img.Prog)
		if err := progtest.CheckPlacement(l); err != nil {
			t.Fatal(err)
		}
		shape := randFrontShape(rand.New(rand.NewSource(walkSeed + 2)))

		e := NewEmitter(img, l, walkSeed)
		got := logged(func() int { return int(e.rng.draws()) }, func() uint64 { return e.Instructions }, func(log *walkLog, sink func(uint64, int32), block func(prev, cur program.BlockID)) {
			e.Sink, e.Collector = sink, collectorFunc(block)
			attachFront(e, shape, log.attended)
			defer func() {
				log.Clock, log.Wake, log.Stall, log.Budget = e.Front.Clock, e.Front.Wake, e.Front.Stall, e.Budget
			}()
			playEngine(img, e, func() (program.BlockID, string) { return e.cur, e.frameName() }, rand.New(rand.NewSource(walkSeed+1)))
		})

		rsrc := &countingSource{Source: rand.NewSource(walkSeed)}
		ref := newRefWalker(img, l, rand.New(rsrc))
		want := logged(func() int { return rsrc.draws }, func() uint64 { return ref.instr }, func(log *walkLog, sink func(uint64, int32), block func(prev, cur program.BlockID)) {
			ref.sink, ref.block = sink, block
			f := newRefFront(shape, log.attended)
			ref.front = f
			defer func() { log.Clock, log.Wake, log.Stall, log.Budget = f.clock, f.wake, f.stall, f.budget }()
			playEngine(img, ref, func() (program.BlockID, string) {
				if len(ref.stack) == 0 {
					return ref.cur, ""
				}
				return ref.cur, ref.stack[len(ref.stack)-1].name
			}, rand.New(rand.NewSource(walkSeed+1)))
		})

		if !reflect.DeepEqual(got, want) {
			for i := range want.Runs {
				if i >= len(got.Runs) || got.Runs[i] != want.Runs[i] {
					t.Errorf("first differing run: #%d", i)
					break
				}
			}
			for i := range want.Attn {
				if i >= len(got.Attn) || got.Attn[i] != want.Attn[i] {
					t.Errorf("first differing attention call: #%d", i)
					break
				}
			}
			t.Fatalf("seeds %d/%d/%d (%d blocks): table walk and reference disagree:\n got %d runs %d blocks %d attention calls instr %d draws %d clock %d wake %d stall %d budget %d ended %q\nwant %d runs %d blocks %d attention calls instr %d draws %d clock %d wake %d stall %d budget %d ended %q",
				progSeed, layoutSeed, walkSeed, len(img.Prog.Blocks),
				len(got.Runs), len(got.Blocks), len(got.Attn), got.Instr, got.Draws, got.Clock, got.Wake, got.Stall, got.Budget, got.Ended,
				len(want.Runs), len(want.Blocks), len(want.Attn), want.Instr, want.Draws, want.Clock, want.Wake, want.Stall, want.Budget, want.Ended)
		}
	}
}

func TestTableWalkMatchesReference(t *testing.T) {
	for prog := int64(1); prog <= 40; prog++ {
		for layout := int64(0); layout < 4; layout++ {
			for walk := int64(0); walk < 2; walk++ {
				checkWalk(t, prog, prog*31+layout, prog*17+walk)
			}
		}
	}
}

func FuzzEmitterWalk(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3))
	f.Add(int64(7919), int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, progSeed, layoutSeed, walkSeed int64) {
		checkWalk(t, progSeed, layoutSeed, walkSeed)
	})
}

// TestStepFitsBudget pins the table row size: four rows per cache line, and a
// quick-scale app image (13k blocks) costs 0.2 MB per specialized copy.
func TestStepFitsBudget(t *testing.T) {
	if size := reflect.TypeOf(step{}).Size(); size > 16 {
		t.Fatalf("step is %d bytes; the budget is 16", size)
	}
}

// TestBlockExitReadsTwentyFourBytes pins what a block exit loads: one 16-byte
// steps row of the image and one 8-byte placement word of the layout. Every
// specialized image owns a steps table and every candidate layout a search
// retains owns its words (a 16-byte {addr, exit} row walked no faster and
// added 10 MB to search-mix's peak RSS).
func TestBlockExitReadsTwentyFourBytes(t *testing.T) {
	if size := reflect.TypeOf(step{}).Size(); size != 16 {
		t.Errorf("step is %d bytes, want 16", size)
	}
	if size := reflect.TypeOf(program.Place(0)).Size(); size != 8 {
		t.Errorf("program.Place is %d bytes, want 8", size)
	}
}

// TestLayoutKeepsTwentyBytesPerBlock pins what a layout stores per block: its
// per-block slices are Order, Adj, CondFirst and the placement words, 20
// bytes. Addresses and occupancies are decoded from the words, not kept
// beside them (they were 12 more bytes a block for every retained candidate).
func TestLayoutKeepsTwentyBytesPerBlock(t *testing.T) {
	lt := reflect.TypeOf(program.Layout{})
	var perBlock uintptr
	var slices []string
	for i := 0; i < lt.NumField(); i++ {
		if f := lt.Field(i); f.Type.Kind() == reflect.Slice {
			perBlock += f.Type.Elem().Size()
			slices = append(slices, f.Name)
		}
	}
	if perBlock != 20 {
		t.Errorf("program.Layout's per-block slices %v take %d bytes a block, want 20", slices, perBlock)
	}
}

func TestCloneProcAfterSealIsAnError(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	img := randAnnotatedImage(r, progtest.RandProgram(r, 3))
	spec := img.Specialize()
	NewEmitter(img, randLayout(t, r, img.Prog), 1)
	if _, err := img.CloneProc(0, "late"); err == nil {
		t.Fatal("CloneProc on an image with an emitter succeeded")
	}
	// The copy was taken before the seal and is its own image.
	if _, err := spec.CloneProc(0, "ok"); err != nil {
		t.Fatalf("CloneProc on the unsealed Specialize copy: %v", err)
	}
	// A copy of a sealed image starts unsealed.
	if _, err := img.Specialize().CloneProc(0, "ok"); err != nil {
		t.Fatalf("CloneProc on a copy of a sealed image: %v", err)
	}
}

func TestNewEmitterRejectsLayoutOfAnotherProgram(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	img := randAnnotatedImage(r, progtest.RandProgram(r, 2))
	other := randLayout(t, r, img.Specialize().Prog)
	defer func() {
		if recover() == nil {
			t.Fatal("NewEmitter accepted a layout of a different program")
		}
	}()
	NewEmitter(img, other, 1)
}
