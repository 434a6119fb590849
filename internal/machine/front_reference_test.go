package machine

import (
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/kernel"
	"codelayout/internal/trace"
)

// ReferenceFront is the fetch front end the machine had before the emitter
// took it over, kept as the reference a whole run is held to: one call per
// fetched run from the emitter's Sink into appFetch/kernelFetch, which move
// the clock and the quantum, ask a general cache.ICache for the run's misses,
// count the measured instructions as they pass, feed the sinks behind the
// measuring flag, and then take the timer interrupt and the quantum switch.
// It shares nothing with the path it checks but the scheduler's clock word
// (cpu.front.Clock, which the scheduler reads and moves across idle gaps):
// its own quantum, its own timer, its own cache, its own counts.
type ReferenceFront struct {
	m     *Machine
	sinks trace.Tee
	cpus  []*refCPU
	// App, Kernel and Stall are Result.AppInstrs, KernelInstrs and
	// FetchStallInstr as the old path counted them: per run, while measuring.
	App, Kernel, Stall uint64
}

type refCPU struct {
	nextTimer uint64
	l1i       *cache.ICache
}

// refProc is one process's quantum. The old scheduler re-armed proc.budget
// before every resume; the reference re-arms when the process's yield returns,
// which is the same moment seen from inside the coroutine.
type refProc struct {
	budget int64
	yield  func(yieldMsg) bool
}

// AttachReferenceFront rewires a machine that has not run yet onto the
// reference front end and feeds sinks the measured fetch runs. The machine
// must have been built without Config.Sinks: the measuring gate attaches and
// detaches those through Emitter.Sink, which is the reference's way in.
func AttachReferenceFront(m *Machine, sinks []trace.Sink) *ReferenceFront {
	if len(m.cfg.Sinks) > 0 || m.ran {
		panic("machine: the reference front attaches to a fresh machine built without Config.Sinks")
	}
	r := &ReferenceFront{m: m, sinks: sinks}
	for _, c := range m.cpus {
		rc := &refCPU{nextTimer: m.cfg.TimerIntervalInstr}
		if m.cfg.FetchStallPenaltyInstr > 0 {
			rc.l1i = cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2})
		}
		r.cpus = append(r.cpus, rc)
		// The emitters fetch through throwaway fronts (no cache, a clock
		// nobody reads) and ask for no attention.
		c.kern.Front = new(codegen.Front)
		c.kern.Sink = func(addr uint64, words int32) { r.kernelFetch(c, addr, words) }
	}
	for _, p := range m.procs {
		st := new(refProc)
		p.emit.Front, p.emit.Attention = new(codegen.Front), nil
		p.emit.Sink = func(addr uint64, words int32) { r.appFetch(p, st, addr, words) }
	}
	return r
}

func (r *ReferenceFront) appFetch(p *proc, st *refProc, addr uint64, words int32) {
	m, c := r.m, p.cpu
	if st.yield == nil {
		// The process's first fetch, inside its first quantum.
		st.yield, st.budget = p.yield, int64(m.cfg.QuantumInstr)
		p.yield = func(msg yieldMsg) bool {
			alive := st.yield(msg)
			st.budget = int64(m.cfg.QuantumInstr)
			return alive
		}
	}
	c.front.Clock += uint64(words)
	st.budget -= int64(words)
	r.fetchStall(c, addr, words, false)
	if m.measuring {
		r.App += uint64(words)
		r.sinks.Fetch(trace.FetchRun{Addr: addr, Words: words, CPU: uint8(c.id)})
	}
	if rc := r.cpus[c.id]; c.front.Clock >= rc.nextTimer {
		rc.nextTimer += m.cfg.TimerIntervalInstr
		c.kern.RunAuto(kernel.SvcTimer)
	}
	if st.budget <= 0 && !p.inCritical() {
		p.doYield(yieldMsg{kind: yQuantum})
	}
}

func (r *ReferenceFront) kernelFetch(c *cpu, addr uint64, words int32) {
	m := r.m
	c.front.Clock += uint64(words)
	r.fetchStall(c, addr, words, true)
	if m.measuring {
		r.Kernel += uint64(words)
		r.sinks.Fetch(trace.FetchRun{Addr: addr, Words: words, CPU: uint8(c.id), Kernel: true})
	}
}

func (r *ReferenceFront) fetchStall(c *cpu, addr uint64, words int32, kernel bool) {
	l1i := r.cpus[c.id].l1i
	if l1i == nil {
		return
	}
	if miss := l1i.FetchWords(addr, words, kernel); miss > 0 {
		stall := uint64(miss) * r.m.cfg.FetchStallPenaltyInstr
		c.front.Clock += stall
		if r.m.measuring {
			r.Stall += stall
		}
	}
}

// Observers reports what the measuring gate has attached: the emitters,
// process and kernel, with a Collector, the process emitters with an OnData
// hook, and whether the gate is open.
func (m *Machine) Observers() (collectors, onData int, open bool) {
	for _, p := range m.procs {
		if p.emit.Collector != nil {
			collectors++
		}
		if p.emit.OnData != nil {
			onData++
		}
	}
	for _, c := range m.cpus {
		if c.kern.Collector != nil {
			collectors++
		}
	}
	return collectors, onData, m.measuring
}
