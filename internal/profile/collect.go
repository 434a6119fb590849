package profile

import (
	"sort"

	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/trace"
)

// Pixie is the instrumentation-based collector: the emitter reports every
// block execution and edge traversal exactly, as a pixified binary would.
//
// A block has at most two static successors plus an indirect-jump table, so
// edges are not counted into a map: every block owns one exit slot naming its
// static successors with a counter each, indirect targets count into a flat
// array beside the slots, and a transition that is no static edge of its
// source lands in a residual map, so exactness never depends on the table.
// The Profile's edge map is built from the non-zero counters when the
// profile is read.
type Pixie struct {
	name   string
	blocks []uint64 // executions per block
	exits  []exitSlot
	// indDst and indN are every indirect block's Targets and their
	// traversal counts, laid end to end; a slot holds its block's range.
	indDst   []program.BlockID
	indN     []uint64
	residual map[uint64]uint64 // edge key → count, nil until needed
}

// exitSlot counts the traversals of one block's static out-edges. d0 is the
// Fall successor (a call's continuation), d1 the Taken successor (a call's
// callee entry); NoBlock, which is never reported as a destination, marks an
// exit the block's terminator does not have.
type exitSlot struct {
	n0, n1 uint64
	d0, d1 program.BlockID
	// ind and indEnd bound the block's targets in indDst/indN (equal when
	// the block is no indirect jump).
	ind, indEnd int32
}

// NewPixie creates an exact collector for the program.
func NewPixie(p *program.Program, name string) *Pixie {
	px := &Pixie{
		name:   name,
		blocks: make([]uint64, p.NumBlocks()),
		exits:  make([]exitSlot, p.NumBlocks()),
	}
	for i, b := range p.Blocks {
		s := &px.exits[i]
		s.d0, s.d1 = program.NoBlock, program.NoBlock
		s.ind = int32(len(px.indDst))
		switch b.Kind {
		case isa.TermFallThrough:
			s.d0 = b.Fall
		case isa.TermCond:
			s.d0, s.d1 = b.Fall, b.Taken
		case isa.TermBranch:
			s.d1 = b.Taken
		case isa.TermCall:
			s.d0, s.d1 = b.Fall, p.Entry(b.Callee)
		case isa.TermIndirect:
			px.indDst = append(px.indDst, b.Targets...)
		}
		s.indEnd = int32(len(px.indDst))
	}
	px.indN = make([]uint64, len(px.indDst))
	return px
}

// Block records one execution of b preceded by src (NoBlock at procedure
// entries reached by call, where the call edge is recorded separately).
func (px *Pixie) Block(src, b program.BlockID) {
	px.blocks[b]++
	if src == program.NoBlock {
		return
	}
	s := &px.exits[src]
	if b == s.d0 {
		s.n0++
		return
	}
	if b == s.d1 {
		s.n1++
		return
	}
	for i := s.ind; i < s.indEnd; i++ {
		if px.indDst[i] == b {
			px.indN[i]++
			return
		}
	}
	if px.residual == nil {
		px.residual = make(map[uint64]uint64)
	}
	px.residual[program.EdgeKey(src, b)]++
}

// Profile returns the counts gathered since NewPixie or the last Reset as a
// profile of its own: the collector keeps counting and a later call returns
// a later profile, neither touching one returned before.
func (px *Pixie) Profile() *Profile {
	pf := &Profile{
		Name:       px.name,
		BlockCount: append([]uint64(nil), px.blocks...),
		EdgeCount:  make(map[uint64]uint64),
	}
	// The first matching counter takes a transition, so no two non-zero
	// counts name one edge.
	for i := range px.exits {
		s := &px.exits[i]
		src := program.BlockID(i)
		if s.n0 > 0 {
			pf.EdgeCount[program.EdgeKey(src, s.d0)] = s.n0
		}
		if s.n1 > 0 {
			pf.EdgeCount[program.EdgeKey(src, s.d1)] = s.n1
		}
		for j := s.ind; j < s.indEnd; j++ {
			if n := px.indN[j]; n > 0 {
				pf.EdgeCount[program.EdgeKey(src, px.indDst[j])] = n
			}
		}
	}
	for k, n := range px.residual {
		pf.EdgeCount[k] = n
	}
	return pf
}

// Reset zeroes every count; the collector stays attached.
func (px *Pixie) Reset() {
	clear(px.blocks)
	for i := range px.exits {
		px.exits[i].n0, px.exits[i].n1 = 0, 0
	}
	clear(px.indN)
	px.residual = nil
}

// DCPI is the sampling collector: it watches the application's part of the
// fetch stream (kernel runs pass unsampled: their addresses are not the
// layout's) and samples one PC every Period instructions, attributing the
// sample to the block containing that address under the layout the workload
// ran with. The resulting profile has block counts only (scaled by the
// period) and no edge counts, like a DCPI/PC-sampling profile.
type DCPI struct {
	Period  uint64
	layout  *program.Layout
	starts  []uint64          // sorted block start addresses
	blocks  []program.BlockID // parallel to starts
	skip    uint64
	Samples uint64
	counts  []uint64
}

// NewDCPI creates a sampling collector over the given layout.
func NewDCPI(l *program.Layout, period uint64) *DCPI {
	d := &DCPI{Period: period, layout: l, counts: make([]uint64, l.Prog.NumBlocks())}
	type ba struct {
		addr uint64
		id   program.BlockID
	}
	all := make([]ba, 0, l.Prog.NumBlocks())
	for id := range l.Prog.Blocks {
		all = append(all, ba{l.Addr(program.BlockID(id)), program.BlockID(id)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].addr < all[j].addr })
	for _, e := range all {
		d.starts = append(d.starts, e.addr)
		d.blocks = append(d.blocks, e.id)
	}
	d.skip = period
	return d
}

// Fetch implements trace.Sink.
func (d *DCPI) Fetch(r trace.FetchRun) {
	if r.Kernel {
		return
	}
	words := uint64(r.Words)
	for words >= d.skip {
		sampleAddr := r.End() - words*isa.WordBytes + (d.skip-1)*isa.WordBytes
		d.sample(sampleAddr)
		words -= d.skip
		d.skip = d.Period
	}
	d.skip -= words
}

func (d *DCPI) sample(addr uint64) {
	d.Samples++
	i := sort.Search(len(d.starts), func(i int) bool { return d.starts[i] > addr }) - 1
	if i < 0 {
		return
	}
	d.counts[d.blocks[i]]++
}

// Finish scales samples by the period into a block-count profile.
func (d *DCPI) Finish(name string) *Profile {
	pf := &Profile{Name: name, BlockCount: make([]uint64, len(d.counts))}
	for b, n := range d.counts {
		blk := d.layout.Prog.Blocks[b]
		words := uint64(blk.Body) + 1
		// A block receives samples in proportion to its dynamic words;
		// dividing by its static length recovers an execution-count
		// estimate.
		pf.BlockCount[b] = n * d.Period / words
	}
	return pf
}
