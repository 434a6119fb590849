package expt

import (
	"fmt"

	"codelayout/internal/workload"
)

// The extension tables are grids: one ProfileSource, one session per cell,
// each cell the table's Options with a few fields changed. This file holds
// what every grid says the same way.

// cell opens the session of one table cell over src: o with the cell's
// edits applied (o is the caller's copy).
func (src *ProfileSource) cell(o Options, edit func(*Options)) (*Session, error) {
	edit(&o)
	return NewSessionFrom(src, o)
}

// axis is one workload × shard-count cell of a matrix table (shards
// normalized: 0 and 1 are the same single-engine machine).
type axis struct {
	w      workload.Workload
	shards int
}

// cellLabel names one workload × shard-count cell of a matrix table.
func cellLabel(w string, shards int) string { return fmt.Sprintf("%s/s%d", w, shards) }

// MatrixSpec configures a workloads × shard-counts table, the robustness
// matrix (Robustness) or the latency tables (LatencyTables): every listed
// workload × shard count is one cell.
type MatrixSpec struct {
	// Workloads are the mixes on the table's axis; at least one. All of them
	// join one union app image, so profiles and layouts are portable between
	// cells.
	Workloads []workload.Workload
	// Shards are the shard counts on the table's axis; empty means {1}.
	Shards []int
	// Layout is the pipeline combo the table measures ("all" if empty).
	Layout string
}

// openMatrix opens a workloads × shard-counts table: it defaults the shard
// axis to {1} and spec.Layout to "all", lists the cells workload-major,
// rejects a cell listed twice — a table over it would repeat one measurement
// under several labels — and builds the union-image source every cell's
// session opens over, so layouts and profiles are portable between cells.
// what starts the no-workload error ("robustness needs").
func openMatrix(o Options, what string, spec *MatrixSpec) (*ProfileSource, []axis, error) {
	wls, shards := spec.Workloads, spec.Shards
	if len(wls) == 0 {
		return nil, nil, fmt.Errorf("expt: %s at least one workload", what)
	}
	if len(shards) == 0 {
		shards = []int{1}
	}
	if spec.Layout == "" {
		spec.Layout = "all"
	}
	var cells []axis
	var labels []string
	for _, w := range wls {
		for _, n := range shards {
			cells = append(cells, axis{w, shardKey(n)})
			labels = append(labels, cellLabel(w.Name(), shardKey(n)))
		}
	}
	if d, ok := dup(labels); ok {
		return nil, nil, fmt.Errorf("expt: cell %s is listed twice", d)
	}
	o.Workload = wls[0]
	src, err := NewProfileSource(o, wls[1:]...)
	return src, cells, err
}

// instrPerTxn is busy (app+kernel) instructions per committed transaction.
func instrPerTxn(m *Measure) float64 {
	if m.Res.Committed == 0 {
		return 0
	}
	return float64(m.Res.BusyInstrs) / float64(m.Res.Committed)
}

// delta renders the signed relative change from off to on (negative = on is
// smaller: an improvement for cost metrics).
func delta(off, on float64) string {
	if off == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(on/off-1))
}
