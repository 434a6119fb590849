package machine

import (
	"fmt"
	"math"
	"sort"

	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/stats"
)

// DefaultDriftThreshold is the L1 kind-mix distance past which the
// re-optimizer retrains (Config.DriftThreshold = 0 selects it). The L1
// distance between two normalized mixes ranges from 0 (identical) to 2
// (disjoint); 0.3 means roughly 15% of transactions changed kind.
const DefaultDriftThreshold = 0.3

// reoptPhase is the drift monitor's state.
type reoptPhase int

const (
	// roMonitor compares each window's kind mix against the reference.
	roMonitor reoptPhase = iota
	// roCollect accumulates one clean online-profile window after drift was
	// detected, then retrains on it. The window models the lag of a
	// background trainer: the swap lands one check period after detection,
	// and the profile it trains on contains only post-drift behavior.
	roCollect
)

// reoptState carries the continuous re-optimization loop: drift detection
// over the live kind mix, the online profile the background retrain
// consumes, and the epoch fence that parks every process at a transaction
// boundary so the app layout can be swapped under idle emitters.
type reoptState struct {
	every     int     // check period, in measured commits
	threshold float64 // L1 drift trigger

	// ref is the reference kind mix (the training mix, or the first
	// measured window when the training mix is unknown).
	ref map[string]float64
	// px observes every app block transition; it is reset when drift is
	// detected so retraining sees only post-drift behavior.
	px *profile.Pixie
	// windowKinds counts measured commits per kind since the last check.
	windowKinds map[string]uint64
	sinceCheck  int
	phase       reoptPhase

	// pendingLayout is the retrained layout awaiting the fence.
	pendingLayout *program.Layout
	// fencing parks processes as they reach yTxnDone; parked maps each to
	// its CPU clock at park time for the stall accounting.
	fencing bool
	parked  map[*proc]uint64

	// postSwap accumulates measured latencies recorded after the most
	// recent swap (Result.PostSwapP99).
	postSwap *latRec
}

func newReoptState(cfg Config) *reoptState {
	th := cfg.DriftThreshold
	if th == 0 {
		th = DefaultDriftThreshold
	}
	ro := &reoptState{
		every:       cfg.ReoptimizeEveryTxns,
		threshold:   th,
		px:          profile.NewPixie(cfg.AppImage.Prog, "online"),
		windowKinds: make(map[string]uint64),
		parked:      make(map[*proc]uint64),
	}
	if len(cfg.TrainKindFreq) > 0 {
		ro.ref = normalizeFreq(cfg.TrainKindFreq)
	}
	return ro
}

// reoptTick runs after every measured commit; every `every` commits it
// closes the window and advances the drift monitor. Returning an error
// aborts the run (a retrainer that cannot produce a layout is a
// configuration bug, not drift).
func (m *Machine) reoptTick() error {
	ro := m.ro
	if ro.fencing {
		return nil // a swap is already in flight; the fence counts nothing
	}
	ro.sinceCheck++
	if ro.sinceCheck < ro.every {
		return nil
	}
	ro.sinceCheck = 0
	live := normalizeCounts(ro.windowKinds)
	ro.windowKinds = make(map[string]uint64)
	if len(live) == 0 {
		return nil
	}
	switch ro.phase {
	case roMonitor:
		if ro.ref == nil {
			// No training mix was supplied: the first measured window
			// becomes the reference.
			ro.ref = live
			return nil
		}
		if KindDistance(live, ro.ref) > ro.threshold {
			// Drift. Start a clean profile window; the retrain one period
			// from now sees only the new mix.
			ro.px.Reset()
			ro.phase = roCollect
		}
	case roCollect:
		l, err := m.cfg.Reoptimize(ro.px.Profile())
		if err != nil {
			return fmt.Errorf("machine: reoptimize: %w", err)
		}
		if l == nil {
			return fmt.Errorf("machine: reoptimize returned no layout")
		}
		if l.Prog != m.cfg.AppImage.Prog {
			return fmt.Errorf("machine: reoptimize returned a layout of a different program")
		}
		ro.pendingLayout = l
		ro.ref = live // the drifted-to mix is the new normal
		ro.phase = roMonitor
		ro.fencing = true
	}
	return nil
}

// reoptPark records a process arriving at the epoch fence. It runs at
// yTxnDone instead of the usual requeue, so the process stays off every run
// queue until the swap. Strict 2PL guarantees a parked process holds no
// locks, so the processes still in flight always make progress — the same
// argument that makes drain() safe.
func (m *Machine) reoptPark(p *proc) {
	p.state = stRunnable
	m.ro.parked[p] = p.cpu.front.Clock
	if len(m.ro.parked) == len(m.procs) {
		m.reoptSwap()
	}
}

// reoptSwap is the epoch transition: every live process is parked at a
// transaction boundary, so all CPU clocks advance to the fence (the latest
// clock), each process is charged the time it sat parked, every app emitter
// hops to the retrained layout (they are all idle — SetLayout enforces it),
// and the processes requeue in deterministic id order.
func (m *Machine) reoptSwap() {
	ro := m.ro
	var fence uint64
	for _, c := range m.cpus {
		if c.front.Clock > fence {
			fence = c.front.Clock
		}
	}
	for _, c := range m.cpus {
		if c.front.Clock < fence {
			gap := fence - c.front.Clock
			if m.measuring {
				m.res.IdleInstrs += gap
			}
			c.front.Clock = fence
		}
	}
	order := make([]*proc, 0, len(ro.parked))
	for p, at := range ro.parked {
		m.res.SwapStallInstr += fence - at
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })

	m.res.PreSwapP99 = m.latencySummary().P99
	for _, p := range m.procs {
		p.emit.SetLayout(ro.pendingLayout)
	}
	for _, p := range order {
		p.cpu.runq.pushBack(p)
	}
	ro.parked = make(map[*proc]uint64)
	ro.pendingLayout = nil
	ro.fencing = false
	ro.postSwap = &latRec{hist: &stats.Log2Hist{}}
	m.res.Reopts++
}

// KindFrequencies returns the normalized measured-phase transaction-kind
// mix (from the latency cells, so it reflects transactions recorded start
// to finish inside the measured phase). Training runs store it so serving
// runs can detect drift against it.
func (m *Machine) KindFrequencies() map[string]float64 {
	counts := make(map[string]uint64)
	for k, r := range m.lat {
		counts[k.kind] += r.hist.N
	}
	return normalizeCounts(counts)
}

// KindDistance is the L1 distance between two normalized kind-frequency
// maps: 0 means identical mixes, 2 means fully disjoint.
func KindDistance(a, b map[string]float64) float64 {
	var d float64
	for kind, fa := range a {
		d += math.Abs(fa - b[kind])
	}
	for kind, fb := range b {
		if _, ok := a[kind]; !ok {
			d += fb
		}
	}
	return d
}

func normalizeCounts(counts map[string]uint64) map[string]float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make(map[string]float64, len(counts))
	for kind, n := range counts {
		out[kind] = float64(n) / float64(total)
	}
	return out
}

func normalizeFreq(freq map[string]float64) map[string]float64 {
	var total float64
	for _, f := range freq {
		total += f
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]float64, len(freq))
	for kind, f := range freq {
		out[kind] = f / total
	}
	return out
}
