package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	led := &ledger{}
	if err := json.Unmarshal(data, led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != 1 {
		return nil, fmt.Errorf("%s: ledger schema %d, want 1", path, led.Schema)
	}
	return led, nil
}

// side is one ledger's reading of one workload × metric: the median over the
// run's repetitions with their spread.
type side struct {
	median, q1, q3, lo, hi float64
}

func sideOf(r *runResult, metric string) (side, bool) {
	v, ok := r.Metrics[metric]
	return side{v.Value, v.Q1, v.Q3, v.Min, v.Max}, ok
}

func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.median)
}

// verdict applies one metric's bound to two sides. worse is the share of A's
// median by which B reads worse (negative: better).
func verdict(d metricDef, a, b side, sameSeed bool) (status string, worse float64) {
	worse = (b.median - a.median) / math.Abs(a.median)
	allBetter := b.hi < a.lo
	if d.Better == "higher" {
		worse = -worse
		allBetter = b.lo > a.hi
	}
	switch {
	case d.Exact && sameSeed:
		// Simulated-clock numbers are deterministic for a seed: any
		// worsening is a changed result, not noise.
		if worse > 0 {
			return "regressed", worse
		}
		return "ok", worse
	case max(a.spread(), b.spread()) > d.Bound && !allBetter:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareLedgers prints one row per workload × end-to-end metric and returns
// the exit code: 1 if any row regressed.
func compareLedgers(w io.Writer, pathA, pathB string) int {
	var leds [2]*ledger
	for i, path := range []string{pathA, pathB} {
		var err error
		if leds[i], err = readLedger(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compare(w, leds[0], leds[1])
}

// untracedRun returns the ledger's end-to-end run of a workload.
func untracedRun(l *ledger, workload string) *runResult {
	for _, r := range l.Runs {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

func compare(w io.Writer, a, b *ledger) int {
	code := 0
	fmt.Fprintf(w, "%-24s %-26s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := untracedRun(a, wl.name), untracedRun(b, wl.name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-24s missing from a ledger\n", wl.name)
			code = 1
			continue
		}
		for _, r := range []*runResult{ra, rb} {
			if !r.Correct {
				fmt.Fprintf(w, "%-24s a run failed its checks (%d of %d operations)\n", wl.name, r.Failed, r.Attempted)
				code = 1
			}
		}
		sameSeed := ra.Seed == rb.Seed
		for _, d := range endToEnd {
			sa, okA := sideOf(ra, d.Name)
			sb, okB := sideOf(rb, d.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-24s %-26s missing from a ledger\n", wl.name, d.Name)
				code = 1
				continue
			}
			status, worse := verdict(d, sa, sb, sameSeed)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-24s %-26s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				wl.name, d.Name, sa.median, sb.median, worse*100, max(sa.spread(), sb.spread())*100, d.Bound*100, status)
		}
		if sameSeed {
			same := "same"
			if ra.Checksum != rb.Checksum {
				same = "differs"
			}
			fmt.Fprintf(w, "%-24s %-26s %14s %14s %35s\n", wl.name, "sim_checksum", ra.Checksum[:12], rb.Checksum[:12], same)
		}
	}
	return code
}
