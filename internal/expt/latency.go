package expt

import (
	"fmt"

	"codelayout/internal/stats"
)

// LatencyTables measures every workload × shard count cell of spec
// self-trained under the original ("base") and the optimized (spec.Layout)
// layout and renders two tables: run-wide percentiles per cell, and the
// per-shard × transaction-kind breakdown — the tail-latency view of the
// layout win that whole-run instruction and miss-ratio aggregates hide.
// The group-commit policy comes from o, so the same tables serve every
// machine.GroupCommit.
func LatencyTables(o Options, spec MatrixSpec) ([]*stats.Table, error) {
	cpus := o.CPUs
	src, cells, err := openMatrix(o, "latency tables need", &spec)
	if err != nil {
		return nil, err
	}

	sum := stats.NewTable(
		fmt.Sprintf("Transaction latency percentiles (instruction-times), orig vs %q layout", spec.Layout),
		"workload", "shards", "layout", "txns", "mean", "p50", "p95", "p99", "max")
	kinds := stats.NewTable(
		fmt.Sprintf("Transaction latency by shard and kind, orig vs %q layout", spec.Layout),
		"workload", "shards", "layout", "shard", "kind", "txns", "p50", "p95", "p99", "max")
	// The fusion layout additionally measures ipchain — its structural
	// sibling (same chain+porder skeleton, per-call-edge merging instead of
	// per-kind fusion) — and reports per-kind deltas against it.
	var fuse *stats.Table
	if spec.Layout == "fusion" {
		fuse = stats.NewTable(
			"Per-kind latency, fusion vs ipchain (negative Δ = fusion faster)",
			"workload", "shards", "kind", "txns", "p50 fuse", "p50 ipc", "Δp50", "p99 fuse", "p99 ipc", "Δp99")
	}

	for _, c := range cells {
		s, err := src.cell(o, func(o *Options) { o.Workload, o.Shards = c.w, c.shards })
		if err != nil {
			return nil, err
		}
		s = s.Reading(NoSinks) // latency is the machine's own
		layouts := []string{"base"}
		if spec.Layout != "base" {
			layouts = append(layouts, spec.Layout)
		}
		if fuse != nil {
			layouts = append(layouts, "ipchain")
		}
		byLayout := make(map[string]*Measure, len(layouts))
		for _, layout := range layouts {
			m, err := s.Measure(layout, cpus)
			if err != nil {
				return nil, fmt.Errorf("latency %s layout=%s: %w", cellLabel(c.w.Name(), c.shards), layout, err)
			}
			byLayout[layout] = m
			name := "orig"
			if layout != "base" {
				name = layout
			}
			l := m.Res.Latency
			sum.AddRow(c.w.Name(), c.shards, name, l.N,
				fmt.Sprintf("%.0f", l.Mean), l.P50, l.P95, l.P99, l.Max)
			for _, k := range m.Latency {
				kinds.AddRow(c.w.Name(), c.shards, name, k.Shard, k.Kind,
					k.Summary.N, k.Summary.P50, k.Summary.P95, k.Summary.P99, k.Summary.Max)
			}
		}
		if fuse != nil {
			addFusionRows(fuse, c.w.Name(), c.shards, byLayout["fusion"], byLayout["ipchain"])
		}
	}
	sum.Note("latency = request generation through successful commit on the simulated clock (1 instr-time ≈ 1 ns); deadlock retries and group-commit waits included")
	kinds.Note("cells are keyed by the transaction's home shard and the workload's kind label (_dist kinds commit through 2PC)")
	out := []*stats.Table{sum, kinds}
	if fuse != nil {
		if o.FetchStallPenaltyInstr == 0 {
			fuse.Note("FetchStallPenaltyInstr is 0: the clock charges no miss stalls, so layout locality cannot move latency — set a penalty to see fusion's win")
		} else {
			fuse.Note(fmt.Sprintf("per-kind cells merged across home shards; clock charges %d instr-times per L1I miss", o.FetchStallPenaltyInstr))
		}
		out = append(out, fuse)
	}
	return out, nil
}

// addFusionRows emits one per-kind comparison row per transaction kind,
// merging each layout's latency cells across home shards.
func addFusionRows(t *stats.Table, wl string, shards int, fuse, ipc *Measure) {
	fh, order := kindHists(fuse)
	ih, _ := kindHists(ipc)
	for _, kind := range order {
		f, i := fh[kind], ih[kind]
		if f == nil || i == nil || f.N == 0 || i.N == 0 {
			continue
		}
		f50, f99 := f.Quantile(0.50), f.Quantile(0.99)
		i50, i99 := i.Quantile(0.50), i.Quantile(0.99)
		t.AddRow(wl, shards, kind, f.N, f50, i50, delta(float64(i50), float64(f50)),
			f99, i99, delta(float64(i99), float64(f99)))
	}
}

// kindHists merges a measure's latency histograms across shards per kind and
// returns them with the kinds in first-seen (shard-then-kind) order.
func kindHists(m *Measure) (map[string]*stats.Log2Hist, []string) {
	out := make(map[string]*stats.Log2Hist)
	var order []string
	for _, c := range m.Latency {
		h := out[c.Kind]
		if h == nil {
			h = &stats.Log2Hist{}
			out[c.Kind] = h
			order = append(order, c.Kind)
		}
		h.Merge(c.Hist)
	}
	return out, order
}
