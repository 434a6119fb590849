package expt_test

import (
	"strconv"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// TestMeasureCarriesLatency: measurement memos carry the latency breakdown
// and tuned group-commit windows, and sessions under different auto-tuning
// modes key separate runs over one shared profile source.
func TestMeasureCarriesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := tinyOptions(tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 120}))
	o.Shards = 2
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	s = s.Reading(expt.NoSinks) // latency and windows are the machine's own
	m, err := s.Measure("base", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Res.Latency.N == 0 {
		t.Fatal("measure carries no latency summary")
	}
	if len(m.Latency) == 0 {
		t.Fatal("measure carries no per-kind latency breakdown")
	}
	for _, c := range m.Latency {
		if c.Summary.N == 0 || c.Hist == nil || c.Hist.N != c.Summary.N {
			t.Fatalf("inconsistent latency cell %+v", c)
		}
	}
	if len(m.GCWindows) != 2 {
		t.Fatalf("GCWindows = %v, want one per shard", m.GCWindows)
	}

	// A tail-tuned session over the same source must run (and memoize) its
	// own measurement — the memo key includes the auto-GC mode.
	o2 := o
	o2.AutoGroupCommit = machine.AutoGCTargetP99
	s2, err := expt.NewSessionFrom(s.Source(), o2)
	if err != nil {
		t.Fatal(err)
	}
	s2 = s2.Reading(expt.NoSinks)
	m2, err := s2.Measure("base", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("tail-tuned measurement returned the untuned session's memo entry")
	}
	if m2.Res.Latency.N == 0 {
		t.Fatal("tuned measure carries no latency summary")
	}
	// Memo hit on repeat within each session.
	if again, _ := s2.Measure("base", o.CPUs); again != m2 {
		t.Fatal("repeated measurement missed the memo")
	}
}

// TestLatencyTablesQuick runs the latency percentile tables end-to-end on a
// tiny configuration: both tables render, the summary has one row per
// (workload × shard count × layout), and every row's percentiles are
// ordered.
func TestLatencyTablesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 120})
	o := tinyOptions(wl)
	tables, err := expt.LatencyTables(o, expt.MatrixSpec{
		Workloads: []workload.Workload{wl},
		Shards:    []int{1, 2},
		Layout:    "all",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	sum := tables[0]
	if len(sum.Rows) != 4 { // 1 workload × 2 shard counts × {orig, all}
		t.Fatalf("summary rows = %d, want 4:\n%+v", len(sum.Rows), sum.Rows)
	}
	col := func(row []string, name string) uint64 {
		for i, c := range sum.Cols {
			if c == name {
				v, err := strconv.ParseUint(row[i], 10, 64)
				if err != nil {
					t.Fatalf("column %s = %q: %v", name, row[i], err)
				}
				return v
			}
		}
		t.Fatalf("no column %s", name)
		return 0
	}
	layouts := map[string]bool{}
	for _, row := range sum.Rows {
		layouts[row[2]] = true
		p50, p95, p99, max := col(row, "p50"), col(row, "p95"), col(row, "p99"), col(row, "max")
		if col(row, "txns") == 0 {
			t.Fatalf("row %v measured no transactions", row)
		}
		if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
			t.Fatalf("row %v percentiles out of order", row)
		}
	}
	if !layouts["orig"] || !layouts["all"] {
		t.Fatalf("summary layouts = %v, want orig and all", layouts)
	}
	if len(tables[1].Rows) < 4 {
		t.Fatalf("per-kind table rows = %d, want >= 4", len(tables[1].Rows))
	}
}
