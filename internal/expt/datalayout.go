package expt

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"codelayout/internal/db"
	"codelayout/internal/stats"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// DataLayoutSpec configures the record-layout comparison: each regime
// (uniform, plus a skewed variant when the workload has a skew knob) is
// trained once and measured twice — interleaved vs grouped physical record
// layout — so the delta columns isolate what hot/cold field grouping buys
// the data cache.
type DataLayoutSpec struct {
	// ZipfTheta is the YCSB skewed regime's Zipfian parameter in (0, 1);
	// 0 selects 0.9 (the YCSB default). Ignored for other workloads.
	ZipfTheta float64
	// HotAccountFrac is the TPC-B skewed regime's hot-account fraction in
	// (0, 1); 0 selects 0.1. Ignored for other workloads.
	HotAccountFrac float64
}

// regime is one key-draw regime of the record-layout table.
type regime struct {
	name string
	wl   workload.Workload
}

// dataLayoutRegimes returns the regimes the table runs: the workload as
// given, plus its skewed variant when it has a skew knob and is not already
// skewed. Order-entry has no skew knob, so it gets the uniform row only.
func dataLayoutRegimes(o Options, spec DataLayoutSpec) []regime {
	regimes := []regime{{name: "uniform", wl: o.Workload}}
	switch w := o.Workload.(type) {
	case *tpcb.Workload:
		if w.HotAccountFrac == 0 {
			frac := spec.HotAccountFrac
			if frac == 0 {
				frac = 0.1
			}
			skew := *w
			skew.HotAccountFrac = frac
			regimes = append(regimes, regime{name: fmt.Sprintf("hot %.0f%%", frac*100), wl: &skew})
		}
	case *ycsb.Workload:
		if w.ZipfTheta == 0 {
			theta := spec.ZipfTheta
			if theta == 0 {
				theta = 0.9
			}
			skew := *w
			skew.ZipfTheta = theta
			regimes = append(regimes, regime{name: fmt.Sprintf("zipf %.2f", theta), wl: &skew})
		}
	}
	return regimes
}

// DataLayoutTable measures the profile-guided record layout against the
// interleaved baseline: per regime (uniform key draw, then the skewed draw
// if the workload has a skew knob), one training run feeds two measured
// runs that differ only in the physical record layout the machine installs
// before loading. Code layout is held at "base"/"kbase" throughout so every
// delta is attributable to data layout alone.
func DataLayoutTable(o Options, spec DataLayoutSpec) (*stats.Table, error) {
	if spec.ZipfTheta < 0 || spec.ZipfTheta >= 1 {
		return nil, fmt.Errorf("expt: DataLayoutSpec.ZipfTheta = %v; must be in [0, 1) (0 selects 0.9)", spec.ZipfTheta)
	}
	if spec.HotAccountFrac < 0 || spec.HotAccountFrac >= 1 {
		return nil, fmt.Errorf("expt: DataLayoutSpec.HotAccountFrac = %v; must be in [0, 1) (0 selects 0.1)", spec.HotAccountFrac)
	}
	cpus := o.CPUs
	if o.Workload == nil {
		o.Workload = defaultWorkload()
	}
	regimes := dataLayoutRegimes(o, spec)

	extras := make([]workload.Workload, 0, 1)
	for _, r := range regimes[1:] {
		extras = append(extras, r.wl)
	}
	src, err := NewProfileSource(o, extras...)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Record layout: %s, %d cpus, interleaved vs grouped (code layout held at base)",
			o.Workload.Name(), cpus),
		"regime", "record layout", "L1D refs", "L1D misses", "miss %", "instr/txn", "p50", "p99")

	for _, r := range regimes {
		s, err := src.cell(o, func(o *Options) { o.Workload = r.wl })
		if err != nil {
			return nil, err
		}
		ms, err := measureRecordLayouts(s, cpus)
		if err != nil {
			return nil, fmt.Errorf("regime %s: %w", r.name, err)
		}
		for i, rl := range []string{"interleaved", "grouped"} {
			m := ms[i]
			miss := 0.0
			if m.Mem.L1DAccesses > 0 {
				miss = float64(m.Mem.L1DMisses) / float64(m.Mem.L1DAccesses)
			}
			t.AddRow(r.name, rl,
				m.Mem.L1DAccesses, m.Mem.L1DMisses, stats.Pct(miss),
				fmt.Sprintf("%.0f", instrPerTxn(m)),
				m.Res.Latency.P50, m.Res.Latency.P99)
		}
		t.Notef("%s: grouped Δ L1D misses %s, Δ p99 %s vs interleaved", r.name,
			delta(float64(ms[0].Mem.L1DMisses), float64(ms[1].Mem.L1DMisses)),
			delta(float64(ms[0].Res.Latency.P99), float64(ms[1].Res.Latency.P99)))
	}
	t.Note("grouped = hot fields (by trained field-access profile) packed contiguously at the record head; same record width, same instruction stream")
	return t, nil
}

// measureRecordLayouts measures s's base code layout twice, reading Mem: under
// the interleaved record layout every table declares, and under the grouped
// one decided from the field-access profile of s's training run. Training
// itself always runs interleaved — the baseline — so the profile does not
// depend on the layout it decides.
func measureRecordLayouts(s *Session, cpus int) ([2]*Measure, error) {
	var ms [2]*Measure
	cfg, err := s.MachineConfig("base", cpus)
	if err != nil {
		return ms, err
	}
	if ms[0], err = s.MeasureConfig(cfg, SinkMem, "base, interleaved records"); err != nil {
		return ms, err
	}
	run, err := s.src.train(s.tc)
	if err != nil {
		return ms, err
	}
	if cfg.RecordLayouts, err = groupedDefs(s.Opt.Workload, run.Fields); err != nil {
		return ms, err
	}
	ms[1], err = s.MeasureConfig(cfg, SinkMem, "base, grouped records")
	return ms, err
}

// The record-layout decision is the data-cache analogue of the paper's
// hot/cold code splitting. From a workload's declared per-table record
// layouts (Workload.RecordSchemas) and a field-access profile (per-field
// read/write tallies the storage engine collects during training), it groups
// hot fields contiguously at the record head with cold fields packed behind.
// It changes only the byte offsets records encode and decode on slotted
// pages; record width, field set and instruction streams are preserved, so
// the L1D model sees fewer touched lines per transaction and nothing else
// moves.

// decideGrouped computes the grouped layout of one table: the declared
// fields stably sorted by descending read+write tally, packed contiguously
// (db.PackFields) so the record width is exactly the declared width. Touched
// fields come first, hottest ahead; fields with equal tallies, the untouched
// ones included, keep declared order, so the decision is deterministic and a
// table training never touched (nil or empty counts) keeps its declared
// layout.
func decideGrouped(declared []db.FieldDef, counts map[string]db.FieldAccess) []db.FieldDef {
	fields := slices.Clone(declared)
	sort.SliceStable(fields, func(i, j int) bool {
		return counts[fields[i].Name].Total() > counts[fields[j].Name].Total()
	})
	return db.PackFields(fields...)
}

// groupedDefs computes the grouped layout of every table the workload
// declares a schema for, keyed by table name — the value of
// machine.Config.RecordLayouts. prof (table → field → tally, as
// machine.Machine.FieldProfile harvests it) may miss tables training never
// touched; they keep their declared layout. Tables are checked in name
// order, so a malformed schema is always reported under the same table.
func groupedDefs(wl workload.Workload, prof map[string]map[string]db.FieldAccess) (map[string][]db.FieldDef, error) {
	schemas := wl.RecordSchemas()
	if len(schemas) == 0 {
		return nil, fmt.Errorf("expt: workload %q returned no table schemas", wl.Name())
	}
	out := make(map[string][]db.FieldDef, len(schemas))
	for _, table := range slices.Sorted(maps.Keys(schemas)) {
		if err := db.ValidateFieldDefs(table, schemas[table]); err != nil {
			return nil, err
		}
		out[table] = decideGrouped(schemas[table], prof[table])
	}
	return out, nil
}
