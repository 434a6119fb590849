package machine

import (
	"math"
	"sort"

	"codelayout/internal/stats"
)

// LatencySummary condenses a per-transaction latency distribution into the
// percentiles a tail-latency SLO is written against. All values are
// simulated instruction-times (1 instruction-time ≈ 1 ns at the paper's
// 1 GHz clock). Percentiles are estimated from the log2-bucketed histogram
// (linear interpolation inside the bucket) and clamped to the exact observed
// maximum.
type LatencySummary struct {
	// N is the number of transactions observed (those that both started and
	// finished inside the measured phase; transactions straddling the
	// warmup/measured boundary are excluded, so N <= Result.Committed).
	N uint64
	// Mean is the average latency.
	Mean float64
	// P50, P95 and P99 are the latency percentiles.
	P50, P95, P99 uint64
	// Max is the exact slowest observed transaction.
	Max uint64
}

// TxnLatency is one (shard, transaction kind) cell of a run's latency
// breakdown.
type TxnLatency struct {
	// Shard is the home shard of the transactions in this cell.
	Shard int
	// Kind is the workload's transaction-kind label (workload.Route.Kind).
	Kind string
	// Summary holds the cell's percentiles.
	Summary LatencySummary
	// Hist is the cell's log2-bucketed latency histogram.
	Hist *stats.Log2Hist
}

// latKey identifies one latency cell.
type latKey struct {
	shard int
	kind  string
}

// latRec accumulates one cell: the log2 histogram plus the exact sum and
// maximum the summary reports (the histogram alone would round them).
type latRec struct {
	hist *stats.Log2Hist
	sum  float64
	max  uint64
}

func (r *latRec) add(d uint64) {
	r.hist.Add(d)
	r.sum += float64(d)
	if d > r.max {
		r.max = d
	}
}

func (r *latRec) summary() LatencySummary {
	s := LatencySummary{
		N:   r.hist.N,
		P50: r.hist.Quantile(0.50),
		P95: r.hist.Quantile(0.95),
		P99: r.hist.Quantile(0.99),
		Max: r.max,
	}
	if s.N > 0 {
		s.Mean = r.sum / float64(s.N)
	}
	// Interpolated quantiles can overshoot the bucket's occupied range;
	// clamp to the exact observed maximum so P99 <= Max always holds.
	for _, p := range []*uint64{&s.P50, &s.P95, &s.P99} {
		if *p > s.Max {
			*p = s.Max
		}
	}
	return s
}

// recordLatency files one finished transaction's latency d (request
// generation through successful commit, deadlock retries and group-commit
// waits included) under its home shard and kind. Measured-phase
// transactions feed the result histograms; warmup transactions feed the
// per-shard histograms the tail-aware group-commit tuner reads. A
// transaction straddling the warmup/measured boundary (or finishing in the
// post-run drain) is recorded nowhere — its latency mixes phases.
func (m *Machine) recordLatency(shard int, kind string, startMeasured bool, d uint64) {
	switch {
	case m.measuring && startMeasured:
		k := latKey{shard: shard, kind: kind}
		r := m.lat[k]
		if r == nil {
			r = &latRec{hist: &stats.Log2Hist{}}
			m.lat[k] = r
		}
		r.add(d)
		if m.ro != nil {
			m.ro.windowKinds[kind]++
			if m.ro.postSwap != nil {
				m.ro.postSwap.add(d)
			}
		}
	case !m.warmupOver && !startMeasured:
		m.warmLat[shard].Add(d)
	}
}

// latencySummary merges every measured cell into the run-wide summary
// Result.Latency reports.
func (m *Machine) latencySummary() LatencySummary {
	all := latRec{hist: &stats.Log2Hist{}}
	for _, r := range m.lat {
		all.hist.Merge(r.hist)
		all.sum += r.sum
		if r.max > all.max {
			all.max = r.max
		}
	}
	return all.summary()
}

// LatencyByKind returns the measured-phase latency breakdown per home shard
// and transaction kind, ordered by (shard, kind). The histograms are copies;
// callers may keep them past the machine's lifetime.
func (m *Machine) LatencyByKind() []TxnLatency {
	keys := make([]latKey, 0, len(m.lat))
	for k := range m.lat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].kind < keys[j].kind
	})
	out := make([]TxnLatency, 0, len(keys))
	for _, k := range keys {
		r := m.lat[k]
		out = append(out, TxnLatency{
			Shard:   k.shard,
			Kind:    k.kind,
			Summary: r.summary(),
			Hist:    r.hist.Clone(),
		})
	}
	return out
}

// ---- Tail-aware group-commit tuning (AutoGCTargetP99) ----

// p99WindowStep is the candidate-window granularity of the tail tuner, as a
// fraction of the log-write latency.
const p99WindowStep = 16

// modeledWait99 is the tuner's model of the 99th-percentile commit-path
// wait at batching window w, for a shard with mean inter-commit gap g and
// physical log-write latency L (all in instruction-times, as float64):
//
//	wait99(w) = 2·w + L + L·g/(g + 4·w)
//
// 2·w is the tail cost of the window itself: a 99th-percentile commit waits
// out its leader's full window, having already lost up to another window to
// the batch ahead. L is the physical write every commit ultimately waits
// on. The last term is batch chaining: with immediate flushes a commit that
// just misses a write parks through that write and then its own — an extra
// L at the tail — while a window spanning a few arrival gaps consolidates
// those arrivals into the open batch, a benefit that saturates once the
// window covers the gap (the 4·w). The minimum sits near
// (sqrt(2·L·g) − g)/4: a fraction of the arrival gap under load, and
// exactly 0 for lightly loaded shards (g >= 2·L), which keep immediate
// flushes rather than trading latency for batches that never form.
func modeledWait99(w, g, L float64) float64 {
	return 2*w + L + L*g/(g+4*w)
}

// tuneGroupCommitP99 sets each shard's batching window to the candidate
// minimizing the modeled p99 transaction latency: the shard's measured
// warmup latency histogram supplies the p99 baseline, the mean gap of its
// commit arrival record (fed by Env.Committed) supplies the arrival process,
// and modeledWait99 supplies the commit-path delta of each candidate window.
// Candidates step in L/p99WindowStep increments from 0 up to min(2L,
// warmupP99/2) — the histogram caps the window so a shard never spends more
// than half its observed tail budget sleeping in the batcher. Ties keep the
// smaller window. A shard with no warmup commits (or no timed latencies)
// keeps the immediate-flush window.
func (m *Machine) tuneGroupCommitP99() {
	elapsed := m.latestClock()
	L := float64(m.cfg.LogWriteDelayInstr)
	step := m.cfg.LogWriteDelayInstr / p99WindowStep
	if step == 0 {
		step = 1
	}
	for i, e := range m.engs {
		m.windows[i] = 0
		warm := m.warmLat[i]
		if e.Committed == 0 || warm.N == 0 {
			continue
		}
		var g float64
		if gp := m.gaps[i]; gp.n > 0 {
			g = gp.sum / float64(gp.n)
		}
		if g <= 0 && elapsed > 0 {
			g = float64(elapsed) / float64(e.Committed)
		}
		if g <= 0 {
			continue
		}
		warmP99 := float64(warm.Quantile(0.99))
		maxW := 2 * m.cfg.LogWriteDelayInstr
		if cap99 := uint64(warmP99 / 2); cap99 < maxW {
			maxW = cap99
		}
		base := modeledWait99(0, g, L)
		best, bestP99 := uint64(0), math.Inf(1)
		for w := uint64(0); w <= maxW; w += step {
			p99 := warmP99 - base + modeledWait99(float64(w), g, L)
			if p99 < bestP99 {
				best, bestP99 = w, p99
			}
		}
		m.windows[i] = best
	}
}
