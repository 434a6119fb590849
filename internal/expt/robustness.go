package expt

import (
	"fmt"

	"codelayout/internal/stats"
)

// RobustnessCell is one matrix entry: the layout trained under Train,
// evaluated under Eval.
type RobustnessCell struct {
	TrainWorkload string
	TrainShards   int
	EvalWorkload  string
	EvalShards    int
	// SelfTrained marks the diagonal (train spec == eval spec).
	SelfTrained bool
	// MissRatio is the application icache miss ratio (64KB/128B/4-way).
	MissRatio float64
	// BaseMissRatio is the unoptimized binary's ratio for the same eval
	// cell (one baseline per cell, shared across its train rows).
	BaseMissRatio float64
	// InstrPerTxn is busy (app+kernel) instructions per committed
	// transaction.
	InstrPerTxn float64
}

// RobustnessResult is the full matrix plus the tables rendering it.
type RobustnessResult struct {
	Cells  []RobustnessCell
	Tables []*stats.Table
}

// Cell returns the matrix entry for a train/eval pair (nil if absent).
func (r *RobustnessResult) Cell(trainW string, trainShards int, evalW string, evalShards int) *RobustnessCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.TrainWorkload == trainW && c.TrainShards == shardKey(trainShards) &&
			c.EvalWorkload == evalW && c.EvalShards == shardKey(evalShards) {
			return c
		}
	}
	return nil
}

// Robustness runs the train×eval matrix of spec's layout: every workload ×
// shard count of spec is both a training configuration and an evaluation
// cell, so the matrix's diagonal is the paper's self-trained setup and every
// off-diagonal entry is a transplanted layout — the AI-PROPELLER-style
// profile-drift question asked across workloads and across shard counts at
// once. It runs in one process over one shared ProfileSource, one session
// per (train cell, eval cell) pair: training runs
// and layouts are memoized on the source by train spec, so no pair can
// collide and the whole matrix reuses each training run across eval cells.
func Robustness(o Options, spec MatrixSpec) (*RobustnessResult, error) {
	cpus := o.CPUs
	src, cells, err := openMatrix(o, "robustness needs", &spec)
	if err != nil {
		return nil, err
	}

	// session opens the session of one (eval, train) pair over the shared
	// source: layouts are memoized there by train spec, so each is trained
	// and built once for the whole matrix.
	session := func(eval, train axis) (*Session, error) {
		return src.cell(o, func(o *Options) {
			o.Workload, o.Shards = eval.w, eval.shards
			o.Train.Workload, o.Train.Shards = train.w, train.shards
		})
	}
	res := &RobustnessResult{}
	reads := SinkApp4W(64) // the one cache the matrix reports
	for ei, eval := range cells {
		self, err := session(eval, eval)
		if err != nil {
			return nil, err
		}
		base, err := self.Reading(reads).Measure("base", cpus)
		if err != nil {
			return nil, fmt.Errorf("baseline for eval %s/s%d: %w", eval.w.Name(), eval.shards, err)
		}
		baseMiss := base.App4W[64].MissRate()
		for ti, train := range cells {
			s := self
			if ti != ei {
				if s, err = session(eval, train); err != nil {
					return nil, err
				}
			}
			m, err := s.Reading(reads).Measure(spec.Layout, cpus)
			if err != nil {
				return nil, fmt.Errorf("train %s/s%d eval %s/s%d: %w",
					train.w.Name(), train.shards, eval.w.Name(), eval.shards, err)
			}
			res.Cells = append(res.Cells, RobustnessCell{
				TrainWorkload: train.w.Name(),
				TrainShards:   train.shards,
				EvalWorkload:  eval.w.Name(),
				EvalShards:    eval.shards,
				SelfTrained:   ti == ei,
				MissRatio:     m.App4W[64].MissRate(),
				BaseMissRatio: baseMiss,
				InstrPerTxn:   instrPerTxn(m),
			})
		}
	}

	cols := []string{"train\\eval"}
	for _, c := range cells {
		cols = append(cols, cellLabel(c.w.Name(), c.shards))
	}

	miss := stats.NewTable(
		fmt.Sprintf("Robustness matrix: app icache miss ratio %% (64KB/128B/4-way), layout %q (* = self-trained)", spec.Layout),
		cols...)
	txn := stats.NewTable(
		fmt.Sprintf("Robustness matrix: busy instructions per transaction, layout %q (* = self-trained)", spec.Layout),
		cols...)
	for _, train := range cells {
		missRow := []interface{}{cellLabel(train.w.Name(), train.shards)}
		txnRow := []interface{}{cellLabel(train.w.Name(), train.shards)}
		for _, eval := range cells {
			c := res.Cell(train.w.Name(), train.shards, eval.w.Name(), eval.shards)
			mark := ""
			if c.SelfTrained {
				mark = "*"
			}
			missRow = append(missRow, fmt.Sprintf("%.3f%s", 100*c.MissRatio, mark))
			txnRow = append(txnRow, fmt.Sprintf("%.0f%s", c.InstrPerTxn, mark))
		}
		miss.AddRow(missRow...)
		txn.AddRow(txnRow...)
	}
	miss.Note("off-diagonal entries evaluate a layout trained on a different workload or shard count; baseline ratios and drift in the summary table")

	sum := stats.NewTable("Robustness summary per eval cell",
		"eval cell", "base miss %", "self-trained miss %", "worst transplant miss %", "worst drift", "worst train")
	for _, eval := range cells {
		var self, worst *RobustnessCell
		for i := range res.Cells {
			c := &res.Cells[i]
			if c.EvalWorkload != eval.w.Name() || c.EvalShards != eval.shards {
				continue
			}
			if c.SelfTrained {
				self = c
			} else if worst == nil || c.MissRatio > worst.MissRatio {
				worst = c
			}
		}
		if worst == nil {
			sum.AddRow(cellLabel(eval.w.Name(), eval.shards), stats.Pct(self.BaseMissRatio),
				stats.Pct(self.MissRatio), "-", "-", "-")
			continue
		}
		sum.AddRow(cellLabel(eval.w.Name(), eval.shards), stats.Pct(self.BaseMissRatio),
			stats.Pct(self.MissRatio), stats.Pct(worst.MissRatio), delta(self.MissRatio, worst.MissRatio),
			cellLabel(worst.TrainWorkload, worst.TrainShards))
	}
	sum.Note("drift = worst transplanted layout's misses over the self-trained layout's; the profile-drift cost of reusing stale layouts")

	res.Tables = []*stats.Table{miss, txn, sum}
	return res, nil
}

// ShardSweepSpec configures the shard-count sweep. Flags.Resolve fills it
// from layoutlab's -shards and -layout.
type ShardSweepSpec struct {
	// Shards are the counts to sweep; at least one.
	Shards []int
	// Layouts are the layout names measured at each count; at least one.
	Layouts []string
	// FastPath adds the predictive single-shard fast path to the sweep:
	// each sharded count is measured with the fast path off and on over
	// one shared fastpath-capable image, and the table gains the on
	// columns and the on/off deltas. Single-shard rows have no router to
	// skip and report only the off side.
	FastPath bool
}

// ShardSweepTable runs the configured shard-count sweep, self-training at
// each count, and reports the speed levers the router adds: throughput (busy
// instructions per transaction and committed txns per million
// instruction-times of wall clock), blocked-on-log time, and app/kernel miss
// ratios. Group commit runs as o configures it (layoutlab's -gc defaults the
// sweep to machine.AutoGCTargetP99). With spec.FastPath every sharded count
// is measured twice — fast path off and on — over one shared image that
// carries the predictor models, so the off/on pair differs only in the
// runtime toggle and the table's delta columns isolate what skipping the
// router and coordinator buys.
func ShardSweepTable(o Options, spec ShardSweepSpec) (*stats.Table, error) {
	if len(spec.Shards) == 0 || len(spec.Layouts) == 0 {
		return nil, fmt.Errorf("expt: the shard sweep needs at least one shard count and one layout")
	}
	cpus := o.CPUs
	o.PredictFastPath = spec.FastPath
	src, err := NewProfileSource(o)
	if err != nil {
		return nil, err
	}

	versus := ""
	cols := []string{"shards", "layout", "instr/txn", "txns/Minstr", "blocked-on-log", "log flushes", "cross-shard", "app miss %", "kern miss %"}
	reads := SinkApp4W(64) | SinkKern4W(64)
	note := "per-shard group commit and the router split the log force across engines; blocked-on-log falls as shards rise"
	if spec.FastPath {
		versus = ", fast path off vs on"
		cols = []string{"shards", "layout",
			"instr/txn off", "instr/txn on", "Δinstr",
			"p99 off", "p99 on", "Δp99",
			"blocked-on-log", "predicted", "mispredicted", "cross-shard"}
		reads = NoSinks // the off/on columns are all the machine's own
		note = "on-side runs share the off side's image and seed; Δ columns are on/off-1, negative = the fast path wins"
	}
	t := stats.NewTable(fmt.Sprintf("Shard sweep: %s, %d cpus, group commit %s%s (self-trained per shard count)",
		src.opt.Workload.Name(), cpus, o.AutoGroupCommit, versus), cols...)
	t.Note(note)

	for _, n := range spec.Shards {
		off, err := src.cell(o, func(o *Options) { o.Shards, o.PredictFastPath = n, false })
		if err != nil {
			return nil, err
		}
		var on *Session
		if spec.FastPath && shardKey(n) > 1 {
			if on, err = src.cell(o, func(o *Options) { o.Shards, o.PredictFastPath = n, true }); err != nil {
				return nil, err
			}
		}
		for _, layout := range spec.Layouts {
			mOff, err := off.Reading(reads).Measure(layout, cpus)
			if err != nil {
				return nil, fmt.Errorf("shards=%d layout=%s: %w", n, layout, err)
			}
			if !spec.FastPath {
				// Committed txns per million instruction-times of wall clock.
				perM := 0.0
				if wall := mOff.Res.BusyInstrs + mOff.Res.IdleInstrs; wall > 0 {
					perM = float64(mOff.Res.Committed) / (float64(wall) / 1e6) * float64(cpus)
				}
				t.AddRow(shardKey(n), layout,
					fmt.Sprintf("%.0f", instrPerTxn(mOff)), fmt.Sprintf("%.2f", perM),
					mOff.Res.LogBlockedInstr, mOff.Res.LogFlushes, mOff.Res.CrossShard,
					stats.Pct(mOff.App4W[64].MissRate()), stats.Pct(mOff.Kern4W[64].MissRate()))
				continue
			}
			if on == nil {
				t.AddRow(shardKey(n), layout,
					fmt.Sprintf("%.0f", instrPerTxn(mOff)), "-", "-",
					mOff.Res.Latency.P99, "-", "-",
					mOff.Res.LogBlockedInstr, "-", "-", mOff.Res.CrossShard)
				continue
			}
			mOn, err := on.Reading(reads).Measure(layout, cpus)
			if err != nil {
				return nil, fmt.Errorf("shards=%d layout=%s fastpath: %w", n, layout, err)
			}
			t.AddRow(shardKey(n), layout,
				fmt.Sprintf("%.0f", instrPerTxn(mOff)), fmt.Sprintf("%.0f", instrPerTxn(mOn)),
				delta(instrPerTxn(mOff), instrPerTxn(mOn)),
				mOff.Res.Latency.P99, mOn.Res.Latency.P99,
				delta(float64(mOff.Res.Latency.P99), float64(mOn.Res.Latency.P99)),
				mOn.Res.LogBlockedInstr, mOn.Res.Predicted, mOn.Res.Mispredicted, mOn.Res.CrossShard)
		}
	}
	return t, nil
}
