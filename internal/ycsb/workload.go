package ycsb

import (
	"fmt"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/workload"
)

func init() {
	workload.Register("ycsb", func() workload.Workload { return New() })
}

// Workload adapts the key-value bench to the workload seam.
type Workload struct {
	Scale Scale
	// ReadPct is the point-read share of the mix in [0, 100]; 0 is a valid
	// pure-update mix. Negative selects DefaultReadPct (95) — the
	// constructors set it explicitly, so only a hand-built literal ever sees
	// the sentinel.
	ReadPct int
	// ZipfTheta, in [0, 1), skews key picks with the YCSB Zipfian generator:
	// popular keys are drawn far more often, scattered over the key space by
	// a hash so the hot set does not cluster on adjacent pages. 0 keeps the
	// classic uniform draw — and leaves runs bit-identical to a workload
	// that never heard of skew.
	ZipfTheta float64
	// CrossShardPct sets the fraction of multi-engine reads that become
	// two-shard scatter reads. Point operations shard trivially, so the
	// default is 0 — no cross-shard traffic, unlike the write workloads'
	// 15% 2PC fraction; scatter reads are read-only and never two-phase
	// commit.
	CrossShardPct int
	// Label overrides the registry name reported by Name, so variants of
	// the mix (a 50/50 read/update split, say) can register themselves
	// under their own names without a new implementation.
	Label string
	// ShiftAfterGens forces mid-run workload drift: after that many
	// generated requests the read share flips from ReadPct to
	// ShiftReadPct (0..100; 0 is a pure-update mix). 0 disables the
	// shift. The generator counts requests machine-wide — exactly one
	// process runs at a time — so the flip lands at a deterministic
	// point for a given seed, which the re-optimization tests rely on.
	ShiftAfterGens int
	ShiftReadPct   int

	images workload.Images[*Bench]
}

// New returns the YCSB-style workload at default scale (95/5 read/update).
func New() *Workload { return NewScaled(DefaultScale()) }

// NewScaled returns the workload at an explicit scale.
func NewScaled(sc Scale) *Workload { return &Workload{Scale: sc, ReadPct: DefaultReadPct} }

// Name implements workload.Workload. A Zipfian skew names a distinct
// workload — it draws a different request stream, so profiles, memo entries
// and persistent-store keys must never collide with the uniform mix.
func (w *Workload) Name() string {
	if w.Label != "" {
		return w.Label
	}
	if w.ZipfTheta > 0 {
		return fmt.Sprintf("ycsb-zipf%02d", int(w.ZipfTheta*100))
	}
	return "ycsb"
}

// Spec implements workload.Workload: the name (the label, if any), the
// scale, the read share, the skew, the cross-shard percentage in effect and
// the forced shift.
func (w *Workload) Spec() string {
	return fmt.Sprintf("%s:%s/read%d/zipf%g/cross%d/shift%dto%d", w.Name(), w.Scale.Spec(),
		w.ReadPct, w.ZipfTheta, w.Partitioning().CrossShardPct, w.ShiftAfterGens, w.ShiftReadPct)
}

// validate fails fast on a scale that cannot load and on knob values that
// would silently produce a nonsensical mix.
func (w *Workload) validate() error {
	if w.Scale.Records <= 0 {
		return fmt.Errorf("ycsb: bad scale %s", w.Scale.Spec())
	}
	if w.ReadPct > 100 {
		return fmt.Errorf("ycsb: ReadPct = %d; must be in [0, 100] (negative selects the default %d)", w.ReadPct, DefaultReadPct)
	}
	if w.ZipfTheta < 0 || w.ZipfTheta >= 1 {
		return fmt.Errorf("ycsb: ZipfTheta = %v; must be in [0, 1) (0 = uniform)", w.ZipfTheta)
	}
	return nil
}

// QuickScale implements workload.Workload.
func (w *Workload) QuickScale() workload.Workload {
	q := *w
	q.Scale = Scale{Records: 4000}
	return &q
}

// Partitioning implements workload.Workload: the store partitions on
// the record key; cross-shard traffic is off unless CrossShardPct opts in.
func (w *Workload) Partitioning() workload.Partitioning {
	pct := 0
	if w.CrossShardPct > 0 {
		pct = w.CrossShardPct
	}
	return workload.Partitioning{Key: "user", CrossShardPct: pct}
}

// DataPages implements workload.Workload (about 70 hundred-byte rows fit an
// 8 KB page after slot overhead; the index adds a small tail).
func (w *Workload) DataPages() int {
	return w.Scale.Records/70 + w.Scale.Records/500 + 8
}

// RecordSchemas implements workload.Workload: the per-table field
// schemas the record-layout pass groups.
func (w *Workload) RecordSchemas() map[string][]db.FieldDef { return Schemas() }

// KindRoots implements workload.Workload: point reads, read-modify-write
// updates, and the sharded scatter read each have their own entry model.
func (w *Workload) KindRoots() []workload.KindRoot {
	return []workload.KindRoot{
		{Kind: "read", Root: "ycsb_read"},
		{Kind: "update", Root: "ycsb_update"},
		{Kind: "mget", Root: "ycsb_mget"},
	}
}

// Models implements workload.Workload: the read, update and scatter-read
// models, mirroring site for site the probe calls RunTxn emits. The read
// root calls only bt_search and heap_fetch — no txn_begin, no lock_acquire,
// no commit — which is what tilts the trained profile toward the search
// paths.
func (w *Workload) Models(lib *codegen.Library) []codegen.FnSpec {
	pick := lib.Pick
	return []codegen.FnSpec{
		{Name: "ycsb_read", Body: []codegen.Frag{
			codegen.Seq(7), lib.ErrPath(), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("rt", 4),
		}},
		{Name: "ycsb_update", Body: []codegen.Frag{
			codegen.Seq(8), lib.ErrPath(), pick("sql", 7),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Call{Fn: "txn_commit"},
			codegen.Seq(4), pick("rt", 4),
		}},
		// The scatter read (sharded machines with a cross-shard fraction):
		// the home-shard read plus a second read on a remote shard, no
		// two-phase commit — reads have nothing to prepare.
		{Name: "ycsb_mget", Body: []codegen.Frag{
			codegen.Seq(8), lib.ErrPath(), pick("sql", 6),
			codegen.Call{Fn: "ycsb_read"},
			codegen.Call{Fn: "ycsb_read"},
			codegen.Seq(4), pick("rt", 4),
		}},
	}
}
