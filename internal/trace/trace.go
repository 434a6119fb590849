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
	// Kernel reports whether the run is kernel text.
	Kernel bool
}

// End returns the address one past the last fetched word. It takes a
// pointer, so a sink that calls it reads the run's fields in place rather
// than copying the run; whether a copy of the 16-byte run would now cost the
// same has not been measured.
func (r *FetchRun) End() uint64 { return r.Addr + uint64(r.Words)*isa.WordBytes }

// DataRef is a data memory reference issued by the workload (buffer pool
// page touches, log writes, private working storage). Only the application
// issues data references: the kernel model fetches instructions alone.
type DataRef struct {
	Addr  uint64
	Bytes int32
	CPU   uint8
	Write bool
}

// Sink consumes instruction fetch runs.
type Sink interface {
	Fetch(r FetchRun)
}

// DataSink consumes data references.
type DataSink interface {
	Data(r DataRef)
}

// Tee fans a fetch stream out to several sinks.
type Tee []Sink

// Fetch implements Sink.
func (t Tee) Fetch(r FetchRun) {
	for _, s := range t {
		s.Fetch(r)
	}
}

// stream passes next the runs of one stream: kernel runs, or application
// runs.
type stream struct {
	kernel bool
	next   Sink
}

// Fetch implements Sink.
func (s *stream) Fetch(r FetchRun) {
	if r.Kernel == s.kernel {
		s.next.Fetch(r)
	}
}

// AppOnly wraps next so it sees only application (non-kernel) runs. This is
// how Section 4 of the paper studies the database application in isolation:
// operating-system references are filtered out of the stream before cache
// simulation.
func AppOnly(next Sink) Sink { return &stream{kernel: false, next: next} }

// KernelOnly wraps next so it sees only kernel runs.
func KernelOnly(next Sink) Sink { return &stream{kernel: true, next: next} }

// Counter counts the runs it is fed.
type Counter struct {
	Runs uint64
}

// Fetch implements Sink.
func (c *Counter) Fetch(FetchRun) { c.Runs++ }
