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
// re-optimizer retrains (Reoptimizer.Drift = 0 selects it). The L1
// distance between two normalized mixes ranges from 0 (identical) to 2
// (disjoint); 0.3 means roughly 15% of transactions changed kind.
const DefaultDriftThreshold = 0.3

// Reoptimizer is a run's continuous re-optimization loop (Config.Reopt):
// every Every measured commits the machine compares the live kind mix with
// TrainMix (or the first measured window) and, past Drift, retrains through
// Retrain on a clean window of the online profile and hot-swaps every app
// emitter to the new layout at an epoch fence — all processes parked at a
// transaction boundary, where strict 2PL guarantees no locks are held.
type Reoptimizer struct {
	// Every is the check period in measured commits; at least 1.
	Every int
	// Drift is the L1 kind-mix distance in [0, 2] that triggers a retrain;
	// 0 selects DefaultDriftThreshold.
	Drift float64
	// TrainMix is the kind mix the current layout was trained on (the drift
	// reference). Unset, the first measured window stands in.
	TrainMix map[string]float64
	// Retrain builds the app layout from the online profile (a private copy
	// it may keep); required. It runs on the scheduler's goroutine between
	// transactions, modeling a background trainer whose result lands one
	// check period after drift detection.
	Retrain func(*profile.Profile) (*program.Layout, error)
}

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
	Reoptimizer // Drift defaulted

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

func newReoptState(r Reoptimizer, app *program.Program) *reoptState {
	if r.Drift == 0 {
		r.Drift = DefaultDriftThreshold
	}
	ro := &reoptState{
		Reoptimizer: r,
		px:          profile.NewPixie(app, "online"),
		windowKinds: make(map[string]uint64),
		parked:      make(map[*proc]uint64),
	}
	if len(r.TrainMix) > 0 {
		ro.ref = normalize(r.TrainMix)
	}
	return ro
}

// reoptTick runs after every measured commit; every Reopt.Every commits it
// closes the window and advances the drift monitor. Returning an error
// aborts the run (a retrainer that cannot produce a layout is a
// configuration bug, not drift).
func (m *Machine) reoptTick() error {
	ro := m.ro
	if ro.fencing {
		return nil // a swap is already in flight; the fence counts nothing
	}
	ro.sinceCheck++
	if ro.sinceCheck < ro.Every {
		return nil
	}
	ro.sinceCheck = 0
	live := normalize(ro.windowKinds)
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
		if KindDistance(live, ro.ref) > ro.Drift {
			// Drift. Start a clean profile window; the retrain one period
			// from now sees only the new mix.
			ro.px.Reset()
			ro.phase = roCollect
		}
	case roCollect:
		l, err := ro.Retrain(ro.px.Profile())
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
	fence := m.latestClock()
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
	return normalize(counts)
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

// normalize scales a kind mix (counts or frequencies) to sum to 1; nil when
// it sums to nothing.
func normalize[N uint64 | float64](mix map[string]N) map[string]float64 {
	var total N
	for _, n := range mix {
		total += n
	}
	if total <= 0 {
		return nil
	}
	out := make(map[string]float64, len(mix))
	for kind, n := range mix {
		out[kind] = float64(n) / float64(total)
	}
	return out
}
