package expt

import (
	"fmt"

	"codelayout/internal/core"
	"codelayout/internal/pstore"
	"codelayout/internal/stats"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// BlendSpec configures the aged-profile blending sweep: two training mixes
// (the stale profile the store already holds, and the mix traffic has
// drifted to) blended at a range of ratios, each blend built into a layout
// and evaluated under the drifted-to mix. The sweep answers the continuous-
// PGO retention question — how much of a stale profile can be kept before
// the layout built from the blend stops serving the new traffic well.
type BlendSpec struct {
	// Old is the stale training mix (nil: the read-heavy 95/5 key-value
	// mix). New is the drifted-to mix every blend is evaluated under (nil:
	// the same store at 5/95, an update-heavy inversion).
	Old, New workload.Workload
	// Ratios are the new-mix weights swept (each blend is old*(1-r) +
	// new*r); empty means {0, 0.25, 0.5, 0.75, 1}.
	Ratios []float64
}

// BlendCell is one measured ratio of the blending sweep.
type BlendCell struct {
	Ratio       float64
	MissRatio   float64
	InstrPerTxn float64
	P50, P99    uint64
}

// BlendResult is the sweep's cells plus the table rendering them.
type BlendResult struct {
	Cells []BlendCell
	Table *stats.Table
}

// defaultBlendWorkloads is the built-in drift pair: the key-value store's
// read-heavy default mix aging into an update-heavy inversion of itself.
// Both mixes share one Scale so they describe the same database.
func defaultBlendWorkloads(quick bool) (workload.Workload, workload.Workload) {
	old := ycsb.New()
	if quick {
		old = old.QuickScale().(*ycsb.Workload)
	}
	upd := *old
	upd.Label = "ycsb-upd"
	upd.ReadPct = 5
	return old, &upd
}

// BlendTable trains the two mixes once each (through the store when one is
// configured), blends their profiles at every ratio with pstore.Blend,
// builds the full optimization pipeline's layout from each blend, and
// measures all of them under the drifted-to mix.
func BlendTable(o Options, spec BlendSpec) (*BlendResult, error) {
	if (spec.Old == nil) != (spec.New == nil) {
		return nil, fmt.Errorf("expt: blend needs both workloads or neither")
	}
	if spec.Old == nil {
		spec.Old, spec.New = defaultBlendWorkloads(o.Quick)
	}
	if spec.Old.Name() == spec.New.Name() {
		return nil, fmt.Errorf("expt: blend workloads must have distinct names (both %q); set Label on one", spec.Old.Name())
	}
	ratios := spec.Ratios
	if len(ratios) == 0 {
		ratios = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	o.Workload = spec.Old
	src, err := NewProfileSource(o, spec.New)
	if err != nil {
		return nil, err
	}
	// Train each mix once over the shared source; the drifted-to mix's
	// session runs every evaluation.
	var entries []*pstore.Entry
	for _, w := range []workload.Workload{spec.Old, spec.New} {
		o.Train.Workload = w
		run, err := src.train(o.resolveTrain())
		if err != nil {
			return nil, fmt.Errorf("expt: blend training %q: %w", w.Name(), err)
		}
		entries = append(entries, run.Entry)
	}
	s, err := src.cell(o, func(o *Options) { o.Workload, o.Train.Workload = spec.New, spec.New })
	if err != nil {
		return nil, err
	}

	pipeline, err := core.ComboPipeline("all")
	if err != nil {
		return nil, err
	}
	res := &BlendResult{}
	t := stats.NewTable(
		fmt.Sprintf("Aged-profile blend: %s → %s, full pipeline, evaluated under %s",
			spec.Old.Name(), spec.New.Name(), spec.New.Name()),
		"new-mix weight", "app miss %", "instr/txn", "p50", "p99")
	for _, r := range ratios {
		blended, err := pstore.Blend(entries, []float64{1 - r, r})
		if err != nil {
			return nil, fmt.Errorf("expt: blend ratio %v: %w", r, err)
		}
		l, _, err := pipeline.Run(src.appImg.Prog, blended.App)
		if err != nil {
			return nil, fmt.Errorf("expt: blend ratio %v layout: %w", r, err)
		}
		// A blend's layout is built outside the named-layout memo, so it is
		// measured ad hoc: the baseline's lowering with the layout swapped,
		// through the same tail as Session.Measure.
		cfg, err := s.MachineConfig("base", o.CPUs)
		if err != nil {
			return nil, err
		}
		cfg.AppLayout = l
		m, err := MeasureConfig(cfg, SinkApp4W(64), fmt.Sprintf("blended layout/kbase/%dcpu", o.CPUs))
		if err != nil {
			return nil, fmt.Errorf("expt: blend ratio %v: %w", r, err)
		}
		cell := BlendCell{
			Ratio:       r,
			MissRatio:   m.App4W[64].MissRate(),
			InstrPerTxn: instrPerTxn(m),
			P50:         m.Res.Latency.P50,
			P99:         m.Res.Latency.P99,
		}
		res.Cells = append(res.Cells, cell)
		t.AddRow(fmt.Sprintf("%.2f", r), stats.Pct(cell.MissRatio),
			fmt.Sprintf("%.0f", cell.InstrPerTxn), cell.P50, cell.P99)
	}
	t.Note("weight 0 is the stale profile alone, weight 1 the fresh one; the knee locates how much aged profile a store can keep blending in")
	res.Table = t
	return res, nil
}
