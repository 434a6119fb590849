package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestMetricTableMatchesBenchmarkJSON keeps the Go metric table and the
// driver's contract file one list: same names in the same order, same units,
// directions and bounds, and the same workloads.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the table %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q with unit %q breaks the naming rules", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s is listed twice", kind, d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound < 0 || d.Bound > 0.25):
				t.Errorf("%s: %s bound %v in BENCHMARK.json, %v in the table (at most 0.25)", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound; per-layer metrics have none", kind, d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

func checkMetrics(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not reported", res.Workload, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s reported in %q, defined in %q", res.Workload, d.Name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, d.Name, v.Value)
		}
	}
}

// checkSpans verifies the span tree: one root, every child inside its
// parent, no negative self time.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	roots := 0
	for _, s := range spans {
		if s.Workload != workload {
			t.Errorf("span %s carries workload %q, want %q", s.Name, s.Workload, workload)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.SelfNs < 0 {
			t.Errorf("span %s has self time %d ns", s.Name, s.SelfNs)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %s [%d,%d] leaves its parent %s [%d,%d]", s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", workload, roots)
	}
	if cover := selfCover(spans); math.Abs(cover-1) > 0.05 {
		t.Errorf("%s: span self times sum to %.3f of the root span", workload, cover)
	}
}

// TestWorkloadsTiny runs every workload at the tiny scale both ways: every
// metric of BENCHMARK.json is reported once with its unit and a finite
// value, the checks pass, the simulated results of the traced and untraced
// runs are bit-identical, and the span tree is well formed.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing below asserts on host time
			rc := runConfig{workload: w, seed: 3, seconds: 0, sz: tinySizes, setups: 1, tmpDir: t.TempDir()}
			plain, err := runUntraced(rc)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, plain, endToEnd)
			if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
				t.Errorf("untraced: correct=%t attempted=%d failed=%d %v", plain.Correct, plain.Attempted, plain.Failed, plain.Failures)
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			if n := plain.Metrics["wall_s_per_sim"].N; n < minReps {
				t.Errorf("%d timed repetitions, want at least %d", n, minReps)
			}

			traced, err := runTraced(rc)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, perLayer)
			if !traced.Correct {
				t.Errorf("traced: failed %d of %d: %v", traced.Failed, traced.Attempted, traced.Failures)
			}
			if traced.Checksum != plain.Checksum {
				t.Errorf("sim_checksum %s traced, %s untraced: tracing changed simulated results", traced.Checksum, plain.Checksum)
			}
			checkSpans(t, w.name, traced.spans)

			sharded := w.name == "machine-ordere-sharded"
			for _, name := range []string{"shard.cross_shard_txns", "predict.predicted"} {
				if got := traced.Metrics[name].Value; (got > 0) != sharded {
					t.Errorf("%s = %v; want work on the sharded machine only", name, got)
				}
			}
			if got := traced.Metrics["search.executed"].Value; (got > 0) != (w.name == "search-mix") {
				t.Errorf("search.executed = %v", got)
			}
			if w.name == "figures-tpcb" {
				if got := traced.Metrics["expt.battery_share"].Value; got < 0.5 {
					t.Errorf("expt.battery_share = %v; the battery should dominate a Measure", got)
				}
			}
		})
	}
}

// failingPrep is a workload whose second repetition's simulation errors, as
// a failed invariant audit would.
type failingPrep struct {
	prepared
	reps int
}

func (p *failingPrep) rep(tr *tracer) (*repOutcome, error) {
	if p.reps++; p.reps > 1 {
		return nil, errors.New("invariant audit failed")
	}
	return p.prepared.rep(tr)
}

// TestSimulationErrorFailsItsOperations: a simulation that errors is not the
// end of the run; it fails its transactions, audit and determinism check, and
// the run still reports every metric, with "correct": false.
func TestSimulationErrorFailsItsOperations(t *testing.T) {
	w := workloadDef{name: "failing", setup: func(seed int64, sz sizes, tr *tracer) (prepared, error) {
		p, err := setupYCSB(seed, sz, tr)
		return &failingPrep{prepared: p}, err
	}}
	rc := runConfig{workload: w, seed: 3, sz: tinySizes, setups: 1, tmpDir: t.TempDir()}
	for _, run := range []struct {
		name string
		f    func(runConfig) (*runResult, error)
		defs []metricDef
	}{{"untraced", runUntraced, endToEnd}, {"traced", runTraced, perLayer}} {
		res, err := run.f(rc)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		checkMetrics(t, res, run.defs)
		if want := uint64(tinySizes.ycsbTxns) + 2; res.Correct || res.Failed != want || res.Attempted <= want {
			t.Errorf("%s: correct=%t attempted=%d failed=%d, want %d failed of more", run.name, res.Correct, res.Attempted, res.Failed, want)
		}
		if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "invariant audit failed") {
			t.Errorf("%s: failures %q", run.name, res.Failures)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("w")
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Workload: "w", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", Workload: "w", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", Workload: "w", StartNs: 30, EndNs: 60}, // overlaps a: covered once
		{ID: 3, Parent: 1, Name: "c", Workload: "w", StartNs: 10, EndNs: 20},
	}
	spans, err := tr.finish()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range []int64{50, 20, 30, 10} {
		if spans[id].SelfNs != want {
			t.Errorf("span %s self = %d, want %d", spans[id].Name, spans[id].SelfNs, want)
		}
	}
	if sec, n := tr.dur("a"); n != 1 || sec != 30e-9 {
		t.Errorf("dur(a) = %v, %d", sec, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed int64, wall, q1, q3, instr float64) *ledger {
		l := &ledger{Schema: 1}
		for _, w := range workloads {
			m := map[string]value{}
			for _, d := range endToEnd {
				m[d.Name] = single(1, d.Unit)
			}
			m["wall_s_per_sim"] = value{Value: wall, Unit: "s", Q1: q1, Q3: q3, Min: q1, Max: q3, N: 5}
			m["sim_instr_stall_per_txn"] = single(instr, "instr")
			l.Runs = append(l.Runs, &runResult{Workload: w.name, Seed: seed, Correct: true, Attempted: 1, Checksum: "0123456789abcdef", Metrics: m})
		}
		return l
	}
	rows := func(a, b *ledger) (string, int) {
		var buf bytes.Buffer
		code := compare(&buf, a, b)
		return buf.String(), code
	}
	// Slow-downs are stated relative to the wall metric's own bound.
	bound := endToEnd[0].Bound
	base := mk(1, 1.00, 0.99, 1.01, 1000)
	slower := func(by, halfSpread float64) *ledger { return mk(1, 1+by, 1+by-halfSpread, 1+by+halfSpread, 1000) }
	if out, code := rows(base, slower(bound/2, 0.01)); code != 0 || strings.Contains(out, "regressed") || strings.Contains(out, "unresolved") {
		t.Errorf("slower by half the bound: exit %d\n%s", code, out)
	}
	if out, code := rows(base, slower(bound*1.5, 0.01)); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("slower by 1.5 bounds: exit %d\n%s", code, out)
	}
	if out, code := rows(base, slower(bound/2, bound)); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out)
	}
	if out, code := rows(base, mk(1, 0.50, 0.50-bound/2, 0.50+bound/2, 1000)); code != 0 || strings.Contains(out, "unresolved") {
		t.Errorf("every run better than every reference run: exit %d\n%s", code, out)
	}
	// A simulated-clock metric may not move at all between runs of one seed...
	if out, code := rows(base, mk(1, 1.00, 0.99, 1.01, 1001)); code != 1 || !strings.Contains(out, "regressed") {
		t.Errorf("sim metric worse by 0.1%% on the same seed: exit %d\n%s", code, out)
	}
	// ...but between seeds only its bound applies.
	if out, code := rows(base, mk(2, 1.00, 0.99, 1.01, 1001)); code != 0 {
		t.Errorf("sim metric 0.1%% apart across seeds: exit %d\n%s", code, out)
	}
}
