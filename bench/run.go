package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procs is the benchmark's pinned parallelism: GOMAXPROCS and the search's
// worker count.
func procs() int { return min(runtime.NumCPU(), 2) }

const (
	// minSetups is how many cold set-ups a run starts with at least; they
	// repeat, up to three times as many, until setupWindow seconds of them
	// have been timed, so a 0.1 s set-up is not judged on three samples. One
	// more set-up precedes every repetition (see runUntraced).
	minSetups   = 3
	setupWindow = 1.0
	// minReps is the fewest timed repetitions of a run: quartiles of fewer
	// than three samples lie outside [min, max] and overstate the spread.
	minReps = 3
)

// runConfig is one invocation on one workload.
type runConfig struct {
	workload workloadDef
	seed     int64
	seconds  float64
	sz       sizes
	// setups is minSetups, or 1 in tests.
	setups int
	// tmpDir is where the pstore probe may write; it is removed afterwards.
	tmpDir string
	// verbose prints every repetition's wall time to standard error.
	verbose bool
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Checksum  string           `json:"sim_checksum"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`

	spans []span
}

// ---- statistics ----

// quartiles returns the quartile cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads printed here are the ones the acceptance rule is stated in. One
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// summarize reports the median of the samples with their spread; of no
// samples (a run whose every repetition failed), zero.
func summarize(xs []float64, unit string) value {
	if len(xs) == 0 {
		return value{Unit: unit}
	}
	q1, q2, q3 := quartiles(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return value{Value: q2, Unit: unit, Q1: q1, Q3: q3, Min: lo, Max: hi, N: len(xs)}
}

// ---- correctness gate ----

// gate accumulates attempted and failed operations. An operation is one
// measured transaction requested, one invariant audit per simulation, or one
// determinism check per repetition.
type gate struct {
	attempted, failed uint64
	failures          []string
}

func (g *gate) fail(n uint64, format string, args ...any) {
	g.failed += n
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// simFailed records a warm-up, repetition or subject run that returned an
// error (a failed invariant audit included): every operation of one
// simulation counts attempted and failed, and the run goes on to report
// "correct": false instead of dying without a result.
func (g *gate) simFailed(p prepared, what string, err error) {
	txns, _ := p.nominal()
	ops := uint64(txns) + 2 // the transactions, the audit, the determinism check
	g.attempted += ops
	g.fail(ops, "%s: %v", what, err)
}

// outcome audits one repetition's visible simulations. Invariant audits that
// fail surface as errors from the run itself (see simFailed), so reaching
// here means every simulation's audit passed; what is left to check is that
// each run committed what was asked and that its latency cells add up.
func (g *gate) outcome(o *repOutcome) {
	g.attempted += o.txns + uint64(o.sims)
	g.runs(o.runs)
}

func (g *gate) runs(runs []simRun) {
	for _, r := range runs {
		if got, want := r.res.Committed, uint64(r.requested); got != want {
			short := uint64(1)
			if got < want {
				short = want - got
			}
			g.fail(short, "%s: committed %d of %d requested", r.label, got, want)
		}
		var n uint64
		for _, c := range r.lat {
			n += c.Summary.N
		}
		// Transactions straddling the warm-up boundary are excluded from
		// the latency cells by design, so N may fall short of Committed.
		if n != r.res.Latency.N || n > r.res.Committed {
			g.fail(1, "%s: latency cells hold %d samples, summary %d, committed %d", r.label, n, r.res.Latency.N, r.res.Committed)
		}
	}
}

// finishRuns audits runs added to an outcome after its repetition (the
// search winner's re-measurement).
func (g *gate) finishRuns(runs []simRun) {
	for _, r := range runs {
		g.attempted += uint64(r.requested) + 1
	}
	g.runs(runs)
}

// beatsBase checks the layout did its job: the subject misses the inline L1I
// less often than the unoptimized layout on the same inputs.
func (g *gate) beatsBase(subject, base *simRun) {
	g.attempted++
	s, b := simMetricsOf(subject.res).l1iMPKI, simMetricsOf(base.res).l1iMPKI
	if !(s < b) {
		g.fail(1, "sim_l1i_mpki(%s) = %v is not below sim_l1i_mpki(%s) = %v", subject.label, s, base.label, b)
	}
}

// searchWins checks elitism held: the winner is no worse than any hand-built
// baseline scored on the same fitness.
func (g *gate) searchWins(o *repOutcome) {
	g.attempted++
	for _, b := range o.search.Baselines {
		if o.search.Winner.Fitness > b.Fitness {
			g.fail(1, "search winner fitness %v is above baseline %s at %v", o.search.Winner.Fitness, b.Spec, b.Fitness)
			return
		}
	}
}

// digest renders everything simulated that a repetition produced; equal
// digests mean bit-identical simulated results.
func digest(o *repOutcome) string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range o.runs {
		fmt.Fprintf(&b, "%s %+v", r.label, r.res)
		for _, c := range r.lat {
			fmt.Fprintf(&b, " [%d %s %+v]", c.Shard, c.Kind, c.Summary)
		}
		b.WriteByte('\n')
	}
	b.WriteString(o.extra)
	return b.String()
}

func checksum(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// ---- host measurements ----

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timedRep is the host cost of one repetition.
type timedRep struct {
	wall       time.Duration
	allocBytes uint64
	mallocs    uint64
	out        *repOutcome
}

// timeRep runs one repetition between two GCs' worth of quiet: a collection
// first, so one repetition's garbage is not charged to the next.
func timeRep(p prepared, tr *tracer) (timedRep, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := p.rep(tr)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return timedRep{wall: wall, allocBytes: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs, out: out}, err
}

// coldSetups runs the workload's set-up from nothing, at least n times and
// then until window seconds of set-ups have been timed or 3n have run, and
// returns the last prepared state with every set-up's wall time.
func coldSetups(rc runConfig, n int, window float64, tr *tracer) (prepared, []float64, error) {
	var p prepared
	var secs []float64
	var total float64
	for len(secs) < n || (total < window && len(secs) < 3*n) {
		p = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = rc.workload.setup(rc.seed, rc.sz, tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[len(secs)-1]
	}
	return p, secs, nil
}

// runUntraced measures the end-to-end metrics: cold set-ups, one discarded
// warm-up, then fixed-size repetitions, each after one more cold set-up,
// until rc.seconds have been measured, at least minReps. Only a failed set-up is an error; a simulation that fails
// afterwards stops the repetitions and is reported through the gate.
func runUntraced(rc runConfig) (*runResult, error) {
	p, setupSecs, err := coldSetups(rc, rc.setups, setupWindow, nil)
	if err != nil {
		return nil, err
	}
	g := &gate{}
	warm, err := p.warmup(nil)
	if err != nil {
		g.simFailed(p, "warm-up", err)
	} else if warm != nil {
		g.outcome(warm)
	}

	var walls, txnRates, allocs []float64
	var firstDigest string
	var last *repOutcome
	var measured time.Duration
	for len(walls) < minReps || measured.Seconds() < rc.seconds {
		// One more cold set-up, discarded, before each repetition: setup_s
		// then samples the host over the whole run, not only its first
		// second, where one noisy phase moved the median by 40 %.
		_, secs, err := coldSetups(rc, 1, 0, nil)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs...)
		r, err := timeRep(p, nil)
		if err != nil {
			g.simFailed(p, fmt.Sprintf("repetition %d", len(walls)+1), err)
			break
		}
		measured += r.wall
		if rc.verbose {
			fmt.Fprintf(os.Stderr, "rep %d: %.3f s, %d simulations\n", len(walls)+1, r.wall.Seconds(), r.out.sims)
		}
		sims := float64(r.out.sims)
		walls = append(walls, r.wall.Seconds()/sims)
		txnRates = append(txnRates, float64(r.out.txns)/r.wall.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/(1<<20)/sims)
		g.outcome(r.out)
		g.attempted++ // the determinism check
		if d := digest(r.out); firstDigest == "" {
			firstDigest = d
		} else if d != firstDigest {
			g.fail(1, "repetition %d produced different simulated results than repetition 1", len(walls))
		}
		last = r.out
	}
	if last != nil {
		if err := finishOutcome(p, last, warm, g, nil); err != nil {
			g.simFailed(p, "subject run", err)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sm := subjectMetrics(last)
	res := &runResult{
		Workload: rc.workload.name, Seed: rc.seed,
		Checksum: checksum(digest(warm), digest(last)),
		Metrics: map[string]value{
			"wall_s_per_sim":          summarize(walls, "s"),
			"sim_txn_per_s":           summarize(txnRates, "txn/s"),
			"alloc_mb_per_sim":        summarize(allocs, "MB"),
			"peak_rss_mb":             single(rss, "MB"),
			"setup_s":                 summarize(setupSecs, "s"),
			"sim_instr_stall_per_txn": single(sm.instrStallPerTxn, "instr"),
			"sim_l1i_mpki":            single(sm.l1iMPKI, "misses/k-instr"),
			"sim_p50_instr":           single(sm.p50, "instr"),
			"sim_p95_instr":           single(sm.p95, "instr"),
		},
	}
	g.report(res)
	res.Metrics["ok_op_share"] = single(1-float64(g.failed)/float64(g.attempted), "ratio")
	return res, nil
}

// finishOutcome completes the last repetition's outcome (search-mix
// re-measures its winner) and runs the cross-run checks.
func finishOutcome(p prepared, last, warm *repOutcome, g *gate, tr *tracer) error {
	seen := len(last.runs)
	if err := p.finish(last, tr); err != nil {
		return err
	}
	g.finishRuns(last.runs[seen:])
	base := last.base
	if base == nil && warm != nil {
		base = warm.base
	}
	if last.subject != nil && base != nil {
		g.beatsBase(last.subject, base)
	}
	if last.search != nil {
		g.searchWins(last)
	}
	return nil
}

func (g *gate) report(res *runResult) {
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Failures = g.failures
	res.Correct = g.failed == 0
}
