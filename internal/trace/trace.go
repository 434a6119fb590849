// Package trace defines the instruction-fetch event stream produced by the
// simulated machine and the sink plumbing the experiments consume it with.
//
// The unit event is a FetchRun: a run of sequentially fetched instruction
// words, one per block exit — a basic block's body plus whatever terminator
// words the layout materialized for the exit taken (and one more run for a
// call's landing branch). Emitting runs instead of individual instructions
// keeps full-workload simulations fast while preserving everything the
// paper's metrics need — miss counts, word usage, sequence lengths — because
// within a run the fetch addresses are consecutive by construction.
//
// Runs are not maximal: two blocks the layout placed back to back still
// arrive as two runs. The machine checks its timer interrupt, quantum expiry
// and warmup/measured gate at run boundaries, so merging address-adjacent
// runs would move those points and with them every simulated number; sinks
// that want maximal sequences (SeqLen) join runs themselves.
package trace

import "codelayout/internal/isa"

// FetchRun is one block exit's run of sequentially fetched instruction words
// (see the package comment for why adjacent runs are never merged).
type FetchRun struct {
	// Addr is the virtual address of the first word.
	Addr uint64
	// Words is the number of consecutive words fetched (>= 1).
	Words int32
	// CPU is the processor executing the run.
	CPU uint8
	// PID identifies the executing process (server process number).
	PID uint16
	// Kernel reports whether the run is kernel text.
	Kernel bool
}

// End returns the address one past the last fetched word.
func (r FetchRun) End() uint64 { return r.Addr + uint64(r.Words)*isa.WordBytes }

// DataRef is a data memory reference issued by the workload (buffer pool
// page touches, log writes, private working storage).
type DataRef struct {
	Addr   uint64
	Bytes  int32
	CPU    uint8
	PID    uint16
	Write  bool
	Kernel bool
}

// Sink consumes instruction fetch runs.
type Sink interface {
	Fetch(r FetchRun)
}

// DataSink consumes data references.
type DataSink interface {
	Data(r DataRef)
}

// Flusher is implemented by sinks that buffer state across runs (for example
// the sequence-length sink) and must be flushed before reading results.
type Flusher interface {
	Flush()
}

// Tee fans a fetch stream out to several sinks.
type Tee []Sink

// Fetch implements Sink.
func (t Tee) Fetch(r FetchRun) {
	for _, s := range t {
		s.Fetch(r)
	}
}

// Flush flushes every sink that implements Flusher.
func (t Tee) Flush() {
	for _, s := range t {
		if f, ok := s.(Flusher); ok {
			f.Flush()
		}
	}
}

// Filter passes through only runs matching Keep.
type Filter struct {
	Keep func(FetchRun) bool
	Next Sink
}

// Fetch implements Sink.
func (f *Filter) Fetch(r FetchRun) {
	if f.Keep(r) {
		f.Next.Fetch(r)
	}
}

// Flush implements Flusher.
func (f *Filter) Flush() {
	if fl, ok := f.Next.(Flusher); ok {
		fl.Flush()
	}
}

// AppOnly wraps next so it sees only application (non-kernel) runs. This is
// how Section 4 of the paper studies the database application in isolation:
// operating-system references are filtered out of the stream before cache
// simulation.
func AppOnly(next Sink) Sink {
	return &Filter{Keep: func(r FetchRun) bool { return !r.Kernel }, Next: next}
}

// KernelOnly wraps next so it sees only kernel runs.
func KernelOnly(next Sink) Sink {
	return &Filter{Keep: func(r FetchRun) bool { return r.Kernel }, Next: next}
}

// Counter tallies instructions and runs.
type Counter struct {
	Runs         uint64
	Instructions uint64
	AppInstrs    uint64
	KernelInstrs uint64
}

// Fetch implements Sink.
func (c *Counter) Fetch(r FetchRun) {
	c.Runs++
	c.Instructions += uint64(r.Words)
	if r.Kernel {
		c.KernelInstrs += uint64(r.Words)
	} else {
		c.AppInstrs += uint64(r.Words)
	}
}
