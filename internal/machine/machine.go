// Package machine is the full-system simulation layer (the SimOS-Alpha
// stand-in): it runs N server processes per CPU against one or more
// partitioned database engines, interleaves them deterministically (quantum
// expiry, blocking log writes, lock waits, timer interrupts), crosses into
// the modeled kernel wherever an engine's db.Env takes time, and fans the
// resulting per-CPU instruction and data streams out to the attached cache
// simulators and collectors.
//
// The workload's database is always hash-partitioned across Config.Shards
// engines, and every transaction runs through the routed workload.Instance
// over one session per engine. One engine is the one-partition case: every
// request homes on shard 0 and nothing is remote. With more, transactions
// pass the instrumented shard router to their home engine, the configured
// cross-shard fraction commits through two-phase commit, and a shared
// waits-for graph detects distributed deadlocks, aborting victims through
// the modeled txn_abort path and retrying them.
//
// Processes are coroutines (package iter's pull iterators over proc.run):
// the scheduler resumes one with next() and is itself suspended until that
// process yields, so exactly one side ever runs and no simulated state needs
// a lock. Runs are fully deterministic for a given seed at every shard count
// and every GOMAXPROCS.
package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/kernel"
	"codelayout/internal/predict"
	"codelayout/internal/program"
	"codelayout/internal/shard"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// GroupCommit is a run's group-commit policy, spelled name[:arg] like a
// pass spec:
//
//	off         leaders flush as soon as they arrive; followers still
//	            piggyback on the flush in flight (the zero value)
//	window:N    leaders sleep N instruction-times before writing, so commits
//	            arriving in the window amortize into one flush (window:0 is
//	            off; N is at most MaxGroupCommitWindow)
//	percommit   no group commit: every commit pays its own blocking log write
//	flushcount  the flush-count tuner (AutoGCFlushCount)
//	p99         the tail tuner (AutoGCTargetP99)
//
// The tuners pick each shard's window at the warmup/measured switch; warmup
// runs with immediate flushes, and with WarmupTxns = 0 there is nothing to
// observe and the windows stay 0. ParseGroupCommit is the one parser.
type GroupCommit string

const (
	// AutoGCOff is the immediate-flush policy.
	AutoGCOff GroupCommit = ""
	// AutoGCFlushCount sizes each shard's window from its warmup commit
	// arrival rate to batch autoGroupTarget commits per flush — the
	// throughput-oriented tuner (fewest physical log writes).
	AutoGCFlushCount GroupCommit = "flushcount"
	// AutoGCTargetP99 sizes each shard's window to minimize the modeled
	// 99th-percentile transaction latency measured over the warmup latency
	// histogram — the tail-oriented tuner. Lightly loaded shards keep
	// immediate flushes; saturated shards widen the window to drain the
	// log queue.
	AutoGCTargetP99 GroupCommit = "p99"

	perCommit GroupCommit = "percommit"
)

// MaxGroupCommitWindow is the largest window:N. Every flush adds its window
// to the leader's clock and to Result.LogBlockedInstr, so a run would need
// 2^32 flushes, far more than any simulated run commits, before a sum of
// windows this wide wrapped a uint64.
const MaxGroupCommitWindow = 1 << 32

// ParseGroupCommit checks a group-commit spec and returns the policy in its
// canonical spelling: "" and "off" are AutoGCOff, and so is window:0.
func ParseGroupCommit(s string) (GroupCommit, error) {
	if arg, ok := strings.CutPrefix(s, "window:"); ok {
		n, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return "", fmt.Errorf("group-commit window %q is not an instruction count", arg)
		}
		if n > MaxGroupCommitWindow {
			return "", fmt.Errorf("group-commit window %d exceeds the maximum of %d instruction-times", n, uint64(MaxGroupCommitWindow))
		}
		if n == 0 {
			return AutoGCOff, nil
		}
		return GroupCommit("window:" + strconv.FormatUint(n, 10)), nil
	}
	switch g := GroupCommit(s); g {
	case AutoGCOff, "off":
		return AutoGCOff, nil
	case perCommit, AutoGCFlushCount, AutoGCTargetP99:
		return g, nil
	}
	return "", fmt.Errorf("unknown group-commit policy %q (have off, window:N, percommit, flushcount, p99)", s)
}

// String implements fmt.Stringer (flags and reports).
func (g GroupCommit) String() string {
	if g == AutoGCOff {
		return "off"
	}
	return string(g)
}

// window is the fixed batching window of a valid window:N policy, 0 for
// every other policy.
func (g GroupCommit) window() uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(string(g), "window:"), 10, 64)
	return n
}

// Config describes one simulated run.
type Config struct {
	CPUs        int
	ProcsPerCPU int
	Seed        int64

	// Shards is the number of partitioned database engines; 0 or 1 runs
	// the whole database on one engine, counts above 1 put the shard router
	// in front of them.
	Shards int

	// WarmupTxns commit before measurement begins (caches and emitters
	// stay warm across the phase switch; only stat collection toggles).
	WarmupTxns int
	// Transactions is the measured committed-transaction count.
	Transactions int

	// Workload is the transaction mix to load and run; required. Each shard's
	// buffer pool holds its share of the loaded data plus room to grow.
	Workload workload.Workload

	// RecordLayouts, when set, installs a physical record layout per table
	// (table name → field definitions) on every engine before the workload
	// loads: the workload's loaders and accessors then encode and decode
	// records at these byte offsets instead of the schema's declared
	// (interleaved) ones. This is how the profile-guided record layout
	// (expt.DataLayoutTable) applies a hot/cold field grouping — only data
	// addresses move; instruction streams are untouched. nil keeps each
	// workload's interleaved default.
	RecordLayouts map[string][]db.FieldDef

	// QuantumInstr is the scheduling timeslice in instructions.
	QuantumInstr uint64
	// TimerIntervalInstr is the clock-interrupt period in instructions.
	// It, LogWriteDelayInstr and PreadDelayInstr are each at most
	// MaxDelayInstr.
	TimerIntervalInstr uint64
	// LogWriteDelayInstr is how long a log write keeps a process blocked,
	// in instruction-times (1 instruction ≈ 1 ns at the paper's 1 GHz).
	LogWriteDelayInstr uint64
	// PreadDelayInstr is the data-file read latency.
	PreadDelayInstr uint64
	// FetchStallPenaltyInstr, when nonzero, models instruction-fetch stalls
	// inline: each CPU tracks its own L1 instruction cache (64KB/64B/2-way,
	// shared between the app and kernel streams it actually fetches) and
	// every miss charges this many instruction-times to the CPU clock. That
	// makes code-layout quality visible in transaction latency — straight-
	// line fused layouts commit sooner, not just miss less — instead of only
	// in the passive cache sinks. 0 (the default) disables the inline cache;
	// runs are then bit-identical to builds without the model. The stall
	// advances the clock but not the scheduling quantum, and the per-CPU
	// cache is separate from Config.Sinks (which observe only the measured
	// phase, while the inline cache stays warm from load onward). At most
	// MaxFetchStallPenaltyInstr.
	FetchStallPenaltyInstr uint64
	// AutoGroupCommit is the group-commit policy (see GroupCommit); the
	// zero value flushes as soon as a leader arrives.
	AutoGroupCommit GroupCommit

	// PredictFastPath enables the predictive single-shard fast path on
	// sharded machines: transactions the predictor expects to stay local
	// skip the instrumented shard router and the 2PC coordinator and run on
	// their home engine's session alone. A misprediction aborts through the
	// modeled txn_abort path (like a deadlock victim) and retries on the
	// full distributed path. Requires Shards > 1 and an app image built
	// with appmodel.Config.FastPath (the decision code is modeled too).
	PredictFastPath bool
	// Predictor overrides the fast path's model (tests inject stubs to
	// force mispredictions); nil uses predict.New(). The machine trains it
	// online from every finished transaction, warmup included, so by the
	// measured phase the model has seen the mix.
	Predictor workload.Predictor

	// Reopt turns on continuous re-optimization (see Reoptimizer); nil
	// leaves it off, and such runs are bit-identical to builds without the
	// feature.
	Reopt *Reoptimizer

	// AppImage/AppLayout and KernImage/KernLayout are the binaries to run.
	AppImage   *codegen.Image
	AppLayout  *program.Layout
	KernImage  *codegen.Image
	KernLayout *program.Layout

	// Sinks receive measured-phase fetch runs; DataSinks receive measured
	// data references.
	Sinks     []trace.Sink
	DataSinks []trace.DataSink
	// AppCollector and KernCollector receive measured-phase block events
	// (profiling).
	AppCollector  codegen.Collector
	KernCollector codegen.Collector
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 1
	}
	if c.ProcsPerCPU <= 0 {
		c.ProcsPerCPU = 8
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Transactions <= 0 {
		c.Transactions = 100
	}
	if c.QuantumInstr == 0 {
		c.QuantumInstr = 200_000
	}
	if c.TimerIntervalInstr == 0 {
		c.TimerIntervalInstr = 1_000_000
	}
	if c.LogWriteDelayInstr == 0 {
		c.LogWriteDelayInstr = 120_000
	}
	if c.PreadDelayInstr == 0 {
		c.PreadDelayInstr = 250_000
	}
	return c
}

// Result reports a run's outcome.
type Result struct {
	Committed uint64
	// Aborted counts measured-phase deadlock-victim aborts (the aborted
	// transactions were retried and are also counted in Committed once
	// they succeeded).
	Aborted uint64
	// CrossShard counts measured-phase transactions that touched a remote
	// shard (committed through two-phase commit).
	CrossShard uint64
	// Predicted counts measured-phase transactions committed on the
	// predictive single-shard fast path (router and 2PC coordinator
	// skipped); Mispredicted counts fast-path attempts that discovered a
	// remote touch, aborted, and retried distributed (those retries are
	// also counted in Aborted, and in Committed once they succeeded).
	Predicted      uint64
	Mispredicted   uint64
	AppInstrs      uint64
	KernelInstrs   uint64
	IdleInstrs     uint64
	BusyInstrs     uint64 // app + kernel, summed over CPUs
	GroupedCommits uint64
	LogFlushes     uint64
	// LogBlockedInstr is the measured-phase instruction-time processes
	// spent blocked on the log: leaders' group-commit windows and physical
	// writes, plus followers parked waiting for a flush in flight.
	LogBlockedInstr uint64
	LockConflicts   uint64
	// Deadlocks counts deadlock victims across all shards from load
	// through the end of the measured phase (warmup included; the post-run
	// drain to quiescence is not, as the engine counters are captured
	// before draining — like LogFlushes and LockConflicts).
	Deadlocks uint64
	BufMisses uint64
	// FetchStallInstr is the measured-phase instruction-time the CPUs spent
	// stalled on L1 instruction-cache misses (zero unless
	// Config.FetchStallPenaltyInstr enables the inline fetch-stall model).
	FetchStallInstr uint64
	// Reopts counts completed layout hot-swaps (Config.Reopt).
	Reopts uint64
	// SwapStallInstr is the instruction-time processes spent parked at
	// epoch fences waiting for the layout swap — the measured cost of the
	// transition.
	SwapStallInstr uint64
	// PreSwapP99 is the measured p99 at the moment of the most recent
	// hot-swap; PostSwapP99 is the p99 of transactions completed after it
	// (both 0 when no swap happened).
	PreSwapP99  uint64
	PostSwapP99 uint64
	// Latency summarizes measured-phase per-transaction latency in
	// instruction-times: request generation through successful commit,
	// deadlock-abort retries and time blocked on the group-commit window
	// included. Machine.LatencyByKind breaks it down per shard and
	// transaction kind.
	Latency LatencySummary
}

// KernelFrac returns the kernel share of busy instructions.
func (r Result) KernelFrac() float64 {
	if r.BusyInstrs == 0 {
		return 0
	}
	return float64(r.KernelInstrs) / float64(r.BusyInstrs)
}

type procState int

const (
	stRunnable procState = iota
	stRunning
	stBlockedIO
	stBlockedWait
)

type yieldKind int

const (
	yTxnDone yieldKind = iota
	yQuantum
	yBlockIO
	yWait
)

type yieldMsg struct {
	kind    yieldKind
	ioDelay uint64
}

type killSentinelType struct{}

type proc struct {
	id  int
	cpu *cpu
	// sessions holds one engine session per shard (all sharing the
	// process's emitter as probe).
	sessions []*db.Session
	emit     *codegen.Emitter
	client   *rand.Rand
	// in is the process's request, refilled in place by each GenInput:
	// nothing reads a request once its transaction has committed.
	in     workload.Input
	state  procState
	wakeAt uint64

	// next resumes the process until its next yield (false once it has
	// returned) and stop unwinds it; yield is the process's side of the
	// switch. Run makes all three, so a machine that never runs holds no
	// goroutine. panicked carries a crash out of the coroutine to step.
	next     func() (yieldMsg, bool)
	stop     func()
	yield    func(yieldMsg) bool
	panicked any

	// logParked/logParkAt time waits on group-commit queues for the
	// blocked-on-log accounting; logParkMeasured records the phase at park
	// time, so waits straddling the warmup/measured (or measured/drain)
	// boundary never leak foreign time into the measured counter.
	logParked       bool
	logParkMeasured bool
	logParkAt       uint64

	// forceSlow pins the current transaction to the full distributed path
	// after a fast-path misprediction (reset per generated request), so the
	// deterministic retry cannot mispredict forever.
	forceSlow bool
}

// inCritical reports whether any of the process's sessions is inside a
// latch-style critical section (at most one can be — the process runs one
// transaction at a time, even a distributed one).
func (p *proc) inCritical() bool {
	for _, s := range p.sessions {
		if s.InCritical() {
			return true
		}
	}
	return false
}

// inTxn reports whether any session has a transaction in flight.
func (p *proc) inTxn() bool {
	for _, s := range p.sessions {
		if s.Txn() != nil {
			return true
		}
	}
	return false
}

type cpu struct {
	id int
	// front is the CPU's fetch front end: its clock, the next timer interrupt
	// (Wake) and, when Config.FetchStallPenaltyInstr is set, the inline L1I.
	// The kernel emitter and every process emitter of the CPU point at it and
	// move the clock themselves as they fetch; the scheduler moves it across
	// idle gaps.
	front codegen.Front
	runq  runQueue
	kern  *codegen.Emitter
	// blocked-IO procs pinned here, for wake scanning.
	blocked []*proc
}

// Machine is one configured simulation.
type Machine struct {
	cfg   Config
	graph *db.WaitGraph
	engs  []*db.Engine
	inst  workload.Instance
	// pred drives the predictive single-shard fast path (nil unless
	// Config.PredictFastPath).
	pred  workload.Predictor
	cpus  []*cpu
	procs []*proc
	// running is the process that holds control (nil while the scheduler
	// does: load, between steps); ran makes Run single-use.
	running *proc
	ran     bool

	measuring bool
	// atOpen holds the fetch totals at the moment the measuring gate opened;
	// the measured instruction counts are what the totals gained since.
	atOpen fetchTotals
	// warmupOver flips (permanently) at the warmup/measured switch, so the
	// post-run drain cannot be mistaken for warmup by the latency recorder.
	warmupOver    bool
	warmCommitted int
	committed     int
	res           Result

	// ro carries the continuous re-optimization loop; nil unless
	// Config.Reopt is set, and every hook checks for nil first,
	// so disabled runs take exactly the historical paths.
	ro *reoptState

	// lat accumulates measured-phase latency per (home shard, txn kind);
	// warmLat accumulates warmup latency per home shard for the tail-aware
	// group-commit tuner.
	lat     map[latKey]*latRec
	warmLat []*stats.Log2Hist

	// windows is each shard's group-commit batching window (HoldFlush),
	// seeded from a window:N policy and rewritten by the
	// tuners; gaps is each shard's commit arrival record, which the tail
	// tuner reads.
	windows []uint64
	gaps    []commitGaps
}

// New builds the machine: per-shard engines, the workload database
// partitioned across them, and processes bound to emitters over the
// configured layouts. The configuration is validated up front; see
// Config.Validate.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, graph: db.NewWaitGraph(), lat: make(map[latKey]*latRec),
		windows: make([]uint64, cfg.Shards), gaps: make([]commitGaps, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		m.warmLat = append(m.warmLat, &stats.Log2Hist{})
		m.windows[i] = cfg.AutoGroupCommit.window()
	}
	graph := m.graph
	// Each shard's pool holds its share of every loaded table plus headroom
	// for tables that grow during the run (history, orders), reproducing the
	// paper's cached setup.
	pool := cfg.Workload.DataPages()/cfg.Shards + 4096
	for i := 0; i < cfg.Shards; i++ {
		m.engs = append(m.engs, db.NewEngine(db.Config{
			BufferPoolPages: pool,
			Env:             (*machineEnv)(m),
			Shard:           i,
			Graph:           graph,
			PageLimit:       pageLimit(cfg.Shards),
			PageStride:      pageStride(cfg.Shards),
		}))
	}
	for _, e := range m.engs {
		if err := e.SetFieldHints(cfg.RecordLayouts); err != nil {
			return nil, err
		}
	}
	inst, err := cfg.Workload.Load(m.engs)
	if err != nil {
		return nil, err
	}
	m.inst = inst
	if cfg.PredictFastPath {
		m.pred = cfg.Predictor
		if m.pred == nil {
			m.pred = predict.New()
		}
	}

	for c := 0; c < cfg.CPUs; c++ {
		cp := &cpu{id: c, runq: runQueue{buf: make([]*proc, cfg.ProcsPerCPU)}}
		cp.front.Wake = cfg.TimerIntervalInstr
		if cfg.FetchStallPenaltyInstr > 0 {
			cp.front.Penalty = cfg.FetchStallPenaltyInstr
			cp.front.L1I = cache.NewPair(64<<10, 64)
		}
		// The kernel fetches on the CPU's clock and through its cache but is
		// never preempted: no Attention.
		cp.kern = codegen.NewEmitter(cfg.KernImage, cfg.KernLayout, cfg.Seed*7919+int64(c))
		cp.kern.Front = &cp.front
		m.cpus = append(m.cpus, cp)
	}

	if cfg.Reopt != nil {
		m.ro = newReoptState(*cfg.Reopt, cfg.AppImage.Prog)
	}

	pid := 0
	for c := 0; c < cfg.CPUs; c++ {
		for i := 0; i < cfg.ProcsPerCPU; i++ {
			pid++
			p := &proc{
				id:     pid,
				cpu:    m.cpus[c],
				client: rand.New(rand.NewSource(cfg.Seed*31 + int64(pid))),
				state:  stRunnable,
			}
			p.emit = codegen.NewEmitter(cfg.AppImage, cfg.AppLayout, cfg.Seed*17+int64(pid))
			p.emit.Front = &p.cpu.front
			p.emit.Attention = func() { m.attend(p) }
			p.emit.Collector = m.alwaysCollector()
			for s := 0; s < cfg.Shards; s++ {
				p.sessions = append(p.sessions, m.engs[s].NewSession(p.id, p.emit))
			}
			m.cpus[c].runq.pushBack(p)
			m.procs = append(m.procs, p)
		}
	}
	return m, nil
}

// autoGroupTarget is the commit-group size AutoGCFlushCount aims to batch
// into one flush: the window is sized to span target-1 mean inter-commit
// gaps, so on average that many later commits join the leader's write.
const autoGroupTarget = 4

// tuneGroupCommit applies the configured tuner at the warmup/measured switch
// (called exactly once; the other policies leave the windows as they are).
func (m *Machine) tuneGroupCommit() {
	switch m.cfg.AutoGroupCommit {
	case AutoGCFlushCount:
		m.tuneGroupCommitFlush()
	case AutoGCTargetP99:
		m.tuneGroupCommitP99()
	}
}

// latestClock returns the furthest-ahead CPU clock.
func (m *Machine) latestClock() uint64 {
	var latest uint64
	for _, c := range m.cpus {
		latest = max(latest, c.front.Clock)
	}
	return latest
}

// tuneGroupCommitFlush sets each shard's batching window from the commit
// arrival rate observed during warmup. A shard that committed nothing keeps
// the immediate-flush window — there is no arrival rate to amortize against.
func (m *Machine) tuneGroupCommitFlush() {
	elapsed := m.latestClock()
	maxWindow := 2 * m.cfg.LogWriteDelayInstr
	for i, e := range m.engs {
		var w uint64
		if e.Committed > 0 && elapsed > 0 {
			gap := elapsed / e.Committed
			w = (autoGroupTarget - 1) * gap
			if w > maxWindow {
				w = maxWindow
			}
		}
		m.windows[i] = w
	}
}

// GroupCommitWindows returns the per-shard batching windows currently in
// force (after a run under a tuner, the tuned values).
func (m *Machine) GroupCommitWindows() []uint64 { return slices.Clone(m.windows) }

// FieldProfile harvests the field-access profile the engines tallied during
// the run: table → field → read/write counts, merged across shards. Only
// field-instrumented accesses (db.Table.FetchFields/UpdateFields) tally, so
// loaders and verification readers never pollute the profile. The result is
// what expt's record-layout decision consumes to group hot fields.
func (m *Machine) FieldProfile() map[string]map[string]db.FieldAccess {
	out := make(map[string]map[string]db.FieldAccess)
	for _, e := range m.engs {
		for name, fields := range e.FieldProfile() {
			dst, ok := out[name]
			if !ok {
				dst = make(map[string]db.FieldAccess, len(fields))
				out[name] = dst
			}
			for field, a := range fields {
				cur := dst[field]
				cur.Reads += a.Reads
				cur.Writes += a.Writes
				dst[field] = cur
			}
		}
	}
	return out
}

// Engines exposes the per-shard engines (tests and verification).
func (m *Machine) Engines() []*db.Engine { return m.engs }

// CheckInvariants verifies the workload's consistency invariants through
// uninstrumented sessions (tests, post-run verification). It audits the
// union of shards, so cross-shard conservation must hold globally.
func (m *Machine) CheckInvariants() error {
	ss := make([]*db.Session, len(m.engs))
	for i, e := range m.engs {
		ss[i] = e.NewSession(0, nil)
	}
	return m.inst.Check(ss)
}

// alwaysCollector is what a process emitter reports its block events to
// outside the measured phase: the online re-optimization profile, which
// observes every phase (it is reset to a clean window when drift is
// detected, so the retrainer only ever sees post-drift behavior), or nothing.
func (m *Machine) alwaysCollector() codegen.Collector {
	if m.ro == nil {
		return nil
	}
	return m.ro.px
}

// multiCollector fans one emitter's block events out to several collectors
// (the online re-optimization profile alongside a configured AppCollector,
// while the gate is open).
type multiCollector []codegen.Collector

func (mc multiCollector) Block(prev, cur program.BlockID) {
	for _, c := range mc {
		c.Block(prev, cur)
	}
}

// ---- Emitter hooks (run inside the current process's coroutine) ----

// attend is a process emitter's Attention callback: the run just fetched took
// the CPU clock to the next timer interrupt or the process's quantum to zero.
// It is the only call the walk makes into the machine on a run nobody
// observes.
func (m *Machine) attend(p *proc) {
	f := &p.cpu.front
	if f.Clock >= f.Wake {
		f.Wake += m.cfg.TimerIntervalInstr
		p.cpu.kern.RunAuto(kernel.SvcTimer)
	}
	// Preemption defers while the session holds an index latch (critical
	// section); the process yields at the next fetch after releasing it.
	if p.emit.Budget <= 0 && !p.inCritical() {
		p.doYield(yieldMsg{kind: yQuantum})
	}
}

// fetchTotals is what the machine has fetched since it was built: the words
// of every process emitter, of every kernel emitter, and the stall every
// front charged.
type fetchTotals struct{ app, kern, stall uint64 }

func (m *Machine) fetchTotals() fetchTotals {
	var t fetchTotals
	for _, p := range m.procs {
		t.app += p.emit.Instructions
	}
	for _, c := range m.cpus {
		t.kern += c.kern.Instructions
		t.stall += c.front.Stall
	}
	return t
}

// openGate starts the measured phase. Like closeGate it runs in the
// scheduler, with every process parked in a yield, so the fetch totals it
// reads are on a run boundary of every emitter. Everything that observes the
// measured phase is attached now, and only what the run configured: the
// collectors, an OnData hook where there are data sinks, and a Sink where
// there are fetch sinks.
func (m *Machine) openGate() {
	m.measuring, m.warmupOver = true, true
	m.atOpen = m.fetchTotals()
	app := m.cfg.AppCollector
	if app != nil && m.ro != nil {
		app = multiCollector{m.ro.px, app}
	}
	for _, p := range m.procs {
		if app != nil {
			p.emit.Collector = app
		}
		if len(m.cfg.DataSinks) > 0 {
			p.emit.OnData = func(addr uint64, bytes int, write bool) { m.data(p, addr, bytes, write) }
		}
	}
	if kern := m.cfg.KernCollector; kern != nil {
		for _, c := range m.cpus {
			c.kern.Collector = kern
		}
	}
	if len(m.cfg.Sinks) == 0 {
		return
	}
	sinks := trace.Tee(m.cfg.Sinks)
	for _, p := range m.procs {
		cpu := uint8(p.cpu.id)
		p.emit.Sink = func(addr uint64, words int32) {
			sinks.Fetch(trace.FetchRun{Addr: addr, Words: words, CPU: cpu})
		}
	}
	for _, c := range m.cpus {
		cpu := uint8(c.id)
		c.kern.Sink = func(addr uint64, words int32) {
			sinks.Fetch(trace.FetchRun{Addr: addr, Words: words, CPU: cpu, Kernel: true})
		}
	}
}

// closeGate ends the measured phase, if it is open: the measured instruction
// counts are read into the result and whatever openGate attached comes off
// the emitters. It returns the result so far, which is what Run reports
// beside an error.
func (m *Machine) closeGate() Result {
	if !m.measuring {
		return m.res
	}
	m.measuring = false
	now := m.fetchTotals()
	m.res.AppInstrs = now.app - m.atOpen.app
	m.res.KernelInstrs = now.kern - m.atOpen.kern
	m.res.FetchStallInstr = now.stall - m.atOpen.stall
	m.res.BusyInstrs = m.res.AppInstrs + m.res.KernelInstrs
	for _, p := range m.procs {
		p.emit.Collector, p.emit.OnData = m.alwaysCollector(), nil
	}
	for _, c := range m.cpus {
		c.kern.Collector = nil
	}
	if len(m.cfg.Sinks) > 0 { // what openGate attached, nothing else
		for _, p := range m.procs {
			p.emit.Sink = nil
		}
		for _, c := range m.cpus {
			c.kern.Sink = nil
		}
	}
	return m.res
}

// data is a process emitter's OnData hook, attached by openGate only when
// the run has data sinks.
func (m *Machine) data(p *proc, addr uint64, bytes int, write bool) {
	d := trace.DataRef{Addr: addr, Bytes: int32(bytes), CPU: uint8(p.cpu.id), Write: write}
	for _, s := range m.cfg.DataSinks {
		s.Data(d)
	}
}

// machineEnv implements db.Env on top of the scheduler: each method runs its
// kernel service on the running process's CPU at the exact point of the
// fetch stream where the engine calls it, then charges its latency. With no
// running process (loads, invariant audits) nothing takes time; Wait alone
// panics, because nothing could wake it.
type machineEnv Machine

type waitList struct {
	procs []*proc
}

// Wait implements db.Env: the process crosses into the kernel's sleep path
// (svc_log_wait for the group-commit queue, svc_lock_sleep for a lock's)
// and parks until Wake.
func (e *machineEnv) Wait(q *db.WaitQueue) {
	m := (*Machine)(e)
	p := m.running
	if p == nil {
		panic("machine: Wait with no running process")
	}
	if q.Name == "log" {
		p.cpu.kern.RunAuto(kernel.SvcLogWait)
		// Followers parked on a group commit count toward the
		// blocked-on-log time until the leader's flush releases them.
		p.logParked = true
		p.logParkMeasured = m.measuring
		p.logParkAt = p.cpu.front.Clock
	} else {
		p.cpu.kern.RunAuto(kernel.SvcLockSleep)
	}
	if q.Tag == nil {
		q.Tag = &waitList{}
	}
	wl := q.Tag.(*waitList)
	wl.procs = append(wl.procs, p)
	p.doYield(yieldMsg{kind: yWait})
}

// Wake implements db.Env.
func (e *machineEnv) Wake(q *db.WaitQueue) {
	m := (*Machine)(e)
	if q.Tag == nil {
		return
	}
	wl := q.Tag.(*waitList)
	for _, p := range wl.procs {
		if p.state == stBlockedWait {
			p.state = stRunnable
			p.cpu.runq.pushBack(p)
		}
		// A runnable process is no longer blocked: drop its waits-for edge
		// now, not when it resumes, so the deadlock detector never walks a
		// stale edge into a phantom cycle.
		m.graph.ClearWait(p.id)
		if p.logParked {
			// Charged only for waits lying entirely inside the measured
			// phase (parked and woken while measuring).
			if m.measuring && p.logParkMeasured && p.cpu.front.Clock > p.logParkAt {
				m.res.LogBlockedInstr += p.cpu.front.Clock - p.logParkAt
			}
			p.logParked = false
		}
	}
	wl.procs = wl.procs[:0]
}

// Pread implements db.Env: the read crosses into svc_pread and blocks the
// process for the read latency. A read under an index latch completes
// synchronously: the process keeps the CPU (and the latch) while the read's
// latency is charged to the clock, so no other process can observe a
// half-modified tree.
func (e *machineEnv) Pread() {
	m := (*Machine)(e)
	p := m.running
	if p == nil {
		return
	}
	p.cpu.kern.RunAuto(kernel.SvcPread)
	if p.inCritical() {
		p.cpu.front.Clock += m.cfg.PreadDelayInstr
	} else {
		p.doYield(yieldMsg{kind: yBlockIO, ioDelay: m.cfg.PreadDelayInstr})
	}
}

// HoldFlush implements db.Env: the group-commit leader sleeps out its
// shard's batching window (with auto-tuning, shards differ) through the
// same put-me-to-sleep path followers take, so concurrent commits join its
// flush. It reports whether the policy is per-commit flushing.
func (e *machineEnv) HoldFlush(shard int) bool {
	m := (*Machine)(e)
	if p := m.running; p != nil && m.windows[shard] > 0 {
		m.blockOnLog(p, kernel.SvcLogWait, m.windows[shard])
	}
	return m.cfg.AutoGroupCommit == perCommit
}

// LogWrite implements db.Env: the leader's physical log write.
func (e *machineEnv) LogWrite() {
	m := (*Machine)(e)
	if p := m.running; p != nil {
		m.blockOnLog(p, kernel.SvcLogWrite, m.cfg.LogWriteDelayInstr)
	}
}

// blockOnLog runs the kernel service svc and blocks p for delay
// instruction-times, which the measured phase counts as blocked on the log.
func (m *Machine) blockOnLog(p *proc, svc string, delay uint64) {
	p.cpu.kern.RunAuto(svc)
	if m.measuring {
		m.res.LogBlockedInstr += delay
	}
	p.doYield(yieldMsg{kind: yBlockIO, ioDelay: delay})
}

// Committed implements db.Env: it times the commit on the running process's
// CPU clock into the shard's gap record; a commit outside a process records
// nothing. Clocks are per-CPU and can diverge: a commit timestamped behind
// the record's high-water mark records no gap and does not move the mark, so
// cross-CPU skew cannot fabricate a giant gap on the next commit.
func (e *machineEnv) Committed(shard int) {
	p := e.running
	if p == nil {
		return
	}
	g, now := &e.gaps[shard], p.cpu.front.Clock
	if g.last > 0 && now >= g.last {
		g.n++
		g.sum += float64(now - g.last)
	}
	g.last = max(g.last, now)
}

// commitGaps is one shard's commit arrival record: the number and sum of the
// gaps (instruction-times) between timed commits, and the latest commit's
// clock reading (0 before the first).
type commitGaps struct {
	n    uint64
	sum  float64
	last uint64
}

// ---- Process coroutine ----
//
// A process runs only inside the scheduler's next() call and the scheduler
// only while every process is suspended in its yield (or not yet started), so
// the two never overlap and share the machine's state without locks. stop()
// makes the pending yield return false; doYield turns that into the kill
// sentinel, which unwinds the process from wherever it is parked (tryTxn
// re-raises it) back to run. Any other panic is a crash: run keeps it for
// step to report and returns, which ends the coroutine.

func (p *proc) run(m *Machine, yield func(yieldMsg) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(killSentinelType); !kill {
				p.panicked = r
			}
		}
	}()
	for {
		p.in = m.inst.GenInput(p.client, p.in)
		// Latency is stamped on the process's CPU clock from request
		// generation to successful commit, so deadlock-abort retries and
		// every block along the way (locks, group-commit windows, log
		// writes, CPU queueing) are part of the transaction's latency.
		rt := m.inst.Route(p.in)
		start := p.cpu.front.Clock
		startMeasured := m.measuring
		p.forceSlow = false
		// A deadlock victim aborts (its locks release, unblocking the
		// cycle) and retries the same request, as TP monitors resubmit
		// aborted transactions. The victim yields its CPU before each
		// retry: an immediate retry could re-acquire its first locks
		// before the wounded party ever resumes, re-forming the same
		// cycle indefinitely (victim back-off, deterministic).
		for !p.tryTxn(m, p.in, rt) {
			p.doYield(yieldMsg{kind: yQuantum})
		}
		m.recordLatency(rt.Home, rt.Kind, startMeasured, p.cpu.front.Clock-start)
		if m.pred != nil {
			// Online training: fold the committed transaction's observed
			// outcome back into the model (and emit the modeled table
			// update). Warmup transactions train too, so the model is warm
			// when measurement starts.
			predict.Train(p.emit, rt.Home, rt.Remote)
			m.pred.Observe(rt.Class, rt.Home, rt.Remote)
		}
		p.doYield(yieldMsg{kind: yTxnDone})
	}
}

// tryTxn routes and executes one transaction described by rt. It reports
// false when the attempt must be retried: the process was chosen as a
// deadlock victim, or its fast-path attempt discovered a remote touch.
// Either way the engine's longjmp (db.ErrDeadlock or workload.ErrMispredict)
// is recovered here, the emitter reset, and every in-flight branch of the
// transaction aborted through the instrumented txn_abort path; a
// misprediction additionally pins the retry to the full distributed path.
// Only RunMispredicted may raise ErrMispredict: the routines' missing-row
// branches raise it, so from RunTxn it means a row is really missing, and
// the run crashes instead of retrying.
func (p *proc) tryTxn(m *Machine, in workload.Input, rt workload.Route) (ok bool) {
	mispredicted := false
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch r {
		case db.ErrDeadlock:
		case workload.ErrMispredict:
			if !mispredicted {
				panic(fmt.Errorf("%w raised outside RunMispredicted (%s request on shard %d)", workload.ErrMispredict, rt.Kind, rt.Home))
			}
			p.forceSlow = true
			if m.measuring {
				m.res.Mispredicted++
			}
		default:
			panic(r)
		}
		p.emit.Reset()
		for _, s := range p.sessions {
			if s.Txn() != nil {
				s.Abort()
			}
		}
		if m.measuring {
			m.res.Aborted++
		}
	}()
	if m.pred != nil && !p.forceSlow {
		// The fast-path decision replaces the router for predicted-local
		// transactions: a prediction-table probe costing a dozen modeled
		// instructions against the router's library-dispatching hundreds.
		// A local request runs through RunTxn, which touches only its home
		// engine; a remote one runs on the home engine until it unwinds.
		local := m.pred.Local(rt.Class, rt.Home)
		predict.Check(p.emit, rt.Home, local)
		if local {
			if rt.Remote {
				mispredicted = true
				m.inst.RunMispredicted(p.sessions[rt.Home], in)
			} else {
				m.inst.RunTxn(p.sessions, in)
			}
			if m.measuring {
				m.res.Predicted++
			}
			return true
		}
	}
	if len(m.engs) > 1 {
		// One engine has no directory to consult: the router model, like
		// the 2PC coordinator's, never fires there.
		shard.Route(p.emit, rt.Home, rt.Remote)
	}
	m.inst.RunTxn(p.sessions, in)
	if rt.Remote && m.measuring {
		m.res.CrossShard++
	}
	return true
}

func (p *proc) doYield(msg yieldMsg) {
	if !p.yield(msg) {
		panic(killSentinelType{})
	}
}
