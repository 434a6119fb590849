// Package probe defines the code-model stream between the real Go database
// engine and the modeled code image. Engine routines report their
// control-flow decisions (which function they entered, which way a branch
// went, how a loop iterated) and their data references; an emitter bound to
// a layout turns those reports into the instruction fetch stream the
// workload would produce on the modeled binary. The stream describes code
// only: what takes time (blocking, reads, log writes) goes through db.Env.
//
// The package exists so that db can raise the stream without importing
// codegen: it holds only the interface and a no-op implementation, so the
// engine can be used and tested standalone. Probe is the whole contract: the
// engine calls every method, AbortUnwind included, without testing for it,
// so a wrapper that embeds a Probe forwards all of them.
package probe

// Probe receives execution events from instrumented code. Implementations
// must tolerate being called from a single goroutine at a time (the machine
// schedules processes one at a time).
type Probe interface {
	// Enter reports entry to the named modeled function. Every Enter must
	// be paired with a Leave of the same name (defer Leave on entry).
	Enter(fn string)
	// Leave reports return from the named modeled function.
	Leave(fn string)
	// Branch reports the outcome of the decision site with the given ID.
	// Sites are declared in the function's code model; order of Branch
	// calls must match the model's control flow.
	Branch(site string, taken bool)
	// Data reports a data memory reference.
	Data(addr uint64, bytes int, write bool)
	// AbortUnwind reports that the instrumented code is about to panic out
	// of the current transaction (a deadlock victim, a fast-path
	// misprediction): the modeled engine longjmps to its abort path, so the
	// Leave events the panic's deferred calls raise must not be modeled.
	AbortUnwind()
}

// Nop is a Probe that does nothing; it lets the engine run at full speed
// outside simulations.
type Nop struct{}

// Enter implements Probe.
func (Nop) Enter(string) {}

// Leave implements Probe.
func (Nop) Leave(string) {}

// Branch implements Probe.
func (Nop) Branch(string, bool) {}

// Data implements Probe.
func (Nop) Data(uint64, int, bool) {}

// AbortUnwind implements Probe.
func (Nop) AbortUnwind() {}

var _ Probe = Nop{}
