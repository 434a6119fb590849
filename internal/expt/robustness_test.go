package expt_test

import (
	"strings"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

func tinyMatrixOptions() expt.Options {
	o := expt.QuickOptions()
	o.Transactions = 40
	o.WarmupTxns = 10
	o.Train.Txns = 100
	o.CPUs = 2
	o.ProcsPerCPU = 3
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	return o
}

func tinyMatrixWorkloads() []workload.Workload {
	return []workload.Workload{
		tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 4, AccountsPerBranch: 150}),
		ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}),
		ycsb.NewScaled(ycsb.Scale{Records: 2500}),
	}
}

// TestRobustnessMatrix is the acceptance test for the train/eval seam: the
// full train×eval matrix over three workloads and two shard counts runs in
// one process, the self-trained diagonal beats the unoptimized baseline in
// every cell, and each diagonal entry is no worse than every transplanted
// layout for its eval cell — or the drift is reported, never silently equal
// by memo collision.
func TestRobustnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	spec := expt.MatrixSpec{
		Workloads: tinyMatrixWorkloads(),
		Shards:    []int{1, 2},
		Layout:    "all",
	}
	res, err := expt.Robustness(tinyMatrixOptions(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cellsPerAxis := len(spec.Workloads) * len(spec.Shards)
	if want := cellsPerAxis * cellsPerAxis; len(res.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(res.Cells), want)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables rendered")
	}
	for _, tb := range res.Tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
	}

	type cellID struct {
		w string
		s int
	}
	var axes []cellID
	for _, w := range spec.Workloads {
		for _, n := range spec.Shards {
			axes = append(axes, cellID{w.Name(), n})
		}
	}
	for _, eval := range axes {
		self := res.Cell(eval.w, eval.s, eval.w, eval.s)
		if self == nil || !self.SelfTrained {
			t.Fatalf("missing self-trained cell for %s/s%d", eval.w, eval.s)
		}
		if self.MissRatio >= self.BaseMissRatio {
			t.Errorf("%s/s%d: self-trained layout did not beat baseline: %.4f vs %.4f",
				eval.w, eval.s, self.MissRatio, self.BaseMissRatio)
		}
		distinct := false
		for _, train := range axes {
			if train == eval {
				continue
			}
			c := res.Cell(train.w, train.s, eval.w, eval.s)
			if c == nil {
				t.Fatalf("missing cell train %s/s%d eval %s/s%d", train.w, train.s, eval.w, eval.s)
			}
			if c.SelfTrained {
				t.Fatalf("off-diagonal cell train %s/s%d eval %s/s%d marked self-trained",
					train.w, train.s, eval.w, eval.s)
			}
			if c.MissRatio != self.MissRatio || c.InstrPerTxn != self.InstrPerTxn {
				distinct = true
			}
			if c.MissRatio < self.MissRatio {
				// The diagonal is allowed to lose at tiny scale, but the
				// drift must be visible, never silently absorbed.
				t.Logf("drift: eval %s/s%d is served better by train %s/s%d (%.4f < %.4f)",
					eval.w, eval.s, train.w, train.s, c.MissRatio, self.MissRatio)
			} else if self.MissRatio > 0 {
				t.Logf("eval %s/s%d ← train %s/s%d: transplant costs %+.1f%% misses",
					eval.w, eval.s, train.w, train.s, 100*(c.MissRatio/self.MissRatio-1))
			}
		}
		if !distinct {
			t.Errorf("%s/s%d: every transplanted measure is identical to the self-trained one — memo collision or dead train/eval seam",
				eval.w, eval.s)
		}
	}
}

// TestTablesRejectDuplicateAxes: a workload or shard count listed twice (0
// and 1 are one machine) would render one cell under several labels; both
// matrix tables refuse before any image builds.
func TestTablesRejectDuplicateAxes(t *testing.T) {
	wls := tinyMatrixWorkloads()
	for name, tc := range map[string]struct {
		wls     []workload.Workload
		shards  []int
		mention string
	}{
		"workload twice":  {[]workload.Workload{wls[0], wls[1], wls[0]}, []int{1}, "cell tpcb/s1 is listed twice"},
		"shard twice":     {wls[:2], []int{2, 4, 2}, "cell tpcb/s2 is listed twice"},
		"0 and 1 are one": {wls[:1], []int{0, 1}, "cell tpcb/s1 is listed twice"},
	} {
		spec := expt.MatrixSpec{Workloads: tc.wls, Shards: tc.shards}
		_, rerr := expt.Robustness(tinyMatrixOptions(), spec)
		_, lerr := expt.LatencyTables(tinyMatrixOptions(), spec)
		for _, err := range []error{rerr, lerr} {
			if err == nil || !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("%s: error %v does not mention %q", name, err, tc.mention)
			}
		}
	}
}

// TestShardSweepTable: the shard-count sweep runs the sharded machine at
// each count over one shared image and reports non-degenerate rows.
func TestShardSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := tinyMatrixOptions()
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 8, TellersPerBranch: 4, AccountsPerBranch: 150})
	o.AutoGroupCommit = machine.AutoGCTargetP99
	tb, err := expt.ShardSweepTable(o, expt.ShardSweepSpec{Shards: []int{1, 2, 4}, Layouts: []string{"base"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
}

// TestShardSweepRejectsEmptyAxes: the sweep has no defaults of its own, so
// a spec without shard counts or layouts fails before anything builds.
func TestShardSweepRejectsEmptyAxes(t *testing.T) {
	o := tinyMatrixOptions()
	for _, spec := range []expt.ShardSweepSpec{
		{Layouts: []string{"base"}},
		{Shards: []int{1, 2}},
	} {
		if _, err := expt.ShardSweepTable(o, spec); err == nil {
			t.Errorf("%+v: want error", spec)
		}
	}
}

// TestShardSweepFastPathColumns drives the configurable sweep with the
// fast-path delta columns on: the single-shard row must print the off-side
// numbers with dashes on the on side (no predictor at one shard), and the
// multi-shard rows must carry real on-side measurements.
func TestShardSweepFastPathColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := tinyMatrixOptions()
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 8, TellersPerBranch: 4, AccountsPerBranch: 150})
	o.AutoGroupCommit = machine.AutoGCTargetP99
	tb, err := expt.ShardSweepTable(o, expt.ShardSweepSpec{
		Shards:   []int{1, 2},
		Layouts:  []string{"base"},
		FastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Cols) != 12 {
		t.Fatalf("cols = %d (%v), want 12", len(tb.Cols), tb.Cols)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	one, two := tb.Rows[0], tb.Rows[1]
	if one[0] != "1" || two[0] != "2" {
		t.Fatalf("shard column: %q, %q", one[0], two[0])
	}
	if one[3] != "-" || one[9] != "-" {
		t.Fatalf("single-shard row must dash the on-side columns: %v", one)
	}
	if two[3] == "-" || two[9] == "-" || two[9] == "0" {
		t.Fatalf("multi-shard row must carry on-side measurements: %v", two)
	}
}
