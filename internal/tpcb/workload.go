package tpcb

import (
	"fmt"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/workload"
)

func init() {
	workload.Register("tpcb", func() workload.Workload { return New() })
}

// Workload adapts the TPC-B bench to the workload seam.
type Workload struct {
	Scale Scale
	// CrossShardPct overrides the percentage of multi-engine requests
	// whose account lives on another shard's branch; 0 uses
	// workload.DefaultCrossShardPct, negative disables cross-shard
	// traffic.
	CrossShardPct int
	// HotAccountFrac, in [0, 1), skews account picks: 80% of draws land in
	// the first HotAccountFrac fraction of the draw range (per branch on
	// sharded machines). 0 keeps the classic uniform draw — and leaves runs
	// bit-identical to a workload that never heard of skew.
	HotAccountFrac float64

	images workload.Images[*Bench]
}

// New returns the TPC-B workload at the paper's 40-branch scale.
func New() *Workload { return NewScaled(DefaultScale()) }

// NewScaled returns the TPC-B workload at an explicit scale.
func NewScaled(sc Scale) *Workload { return &Workload{Scale: sc} }

// Name implements workload.Workload. A hot-account skew names a distinct
// workload — it draws a different request stream, so profiles, memo entries
// and persistent-store keys must never collide with the uniform mix.
func (w *Workload) Name() string {
	if w.HotAccountFrac > 0 {
		return fmt.Sprintf("tpcb-hot%02d", int(w.HotAccountFrac*100))
	}
	return "tpcb"
}

// Spec implements workload.Workload: the name, the scale, the cross-shard
// percentage in effect and the hot-account fraction.
func (w *Workload) Spec() string {
	return fmt.Sprintf("%s:%s/cross%d/hot%g", w.Name(), w.Scale.Spec(), w.Partitioning().CrossShardPct, w.HotAccountFrac)
}

// QuickScale implements workload.Workload: a shrunken database for CI and
// bench runs.
func (w *Workload) QuickScale() workload.Workload {
	return &Workload{
		Scale:          Scale{Branches: 10, TellersPerBranch: 5, AccountsPerBranch: 400},
		CrossShardPct:  w.CrossShardPct,
		HotAccountFrac: w.HotAccountFrac,
	}
}

// validate fails fast on a scale that cannot load and on knob values that
// would silently produce a nonsensical mix.
func (w *Workload) validate() error {
	if sc := w.Scale; sc.Branches <= 0 || sc.TellersPerBranch <= 0 || sc.AccountsPerBranch <= 0 {
		return fmt.Errorf("tpcb: bad scale %s", sc.Spec())
	}
	if w.HotAccountFrac < 0 || w.HotAccountFrac >= 1 {
		return fmt.Errorf("tpcb: HotAccountFrac = %v; must be in [0, 1) (0 = uniform)", w.HotAccountFrac)
	}
	return nil
}

// Partitioning implements workload.Workload: TPC-B partitions on the
// branch, the key the teller and branch updates already cluster around.
func (w *Workload) Partitioning() workload.Partitioning {
	return workload.Partitioning{Key: "branch", CrossShardPct: workload.EffectiveCrossShardPct(w.CrossShardPct)}
}

// DataPages implements workload.Workload (about 70 hundred-byte rows fit an
// 8 KB page after slot overhead).
func (w *Workload) DataPages() int {
	return w.Scale.Branches*w.Scale.AccountsPerBranch/70 +
		w.Scale.Branches*w.Scale.TellersPerBranch/70 +
		w.Scale.Branches
}

// RecordSchemas implements workload.Workload: the per-table field
// schemas the record-layout pass groups.
func (w *Workload) RecordSchemas() map[string][]db.FieldDef { return Schemas() }

// KindRoots implements workload.Workload: the local mix runs tpcb_txn, the
// cross-shard variant runs the tpcb_dist model (sharded runs label it
// "tpcb_dist").
func (w *Workload) KindRoots() []workload.KindRoot {
	return []workload.KindRoot{
		{Kind: "tpcb", Root: "tpcb_txn"},
		{Kind: "tpcb_dist", Root: "tpcb_dist"},
	}
}

// Models implements workload.Workload: the TPC-B transaction models,
// mirroring site for site the probe calls RunTxn emits against the engine.
func (w *Workload) Models(lib *codegen.Library) []codegen.FnSpec {
	pick := lib.Pick
	return []codegen.FnSpec{
		{Name: "upd_account", Body: []codegen.Frag{
			codegen.Seq(7), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "upd_teller", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "upd_branch", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 5),
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "ins_history", Body: []codegen.Frag{
			codegen.Seq(5), pick("sql", 5),
			codegen.Call{Fn: "heap_insert"},
			codegen.Seq(3),
		}},
		{Name: "tpcb_txn", Body: []codegen.Frag{
			codegen.Seq(9), lib.ErrPath(), pick("sql", 8),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "upd_account"},
			codegen.Call{Fn: "upd_teller"},
			codegen.Call{Fn: "upd_branch"},
			codegen.Call{Fn: "ins_history"},
			codegen.Call{Fn: "txn_commit"},
			codegen.Seq(6), pick("rt", 4),
		}},
		// The distributed variant (sharded machines): home-shard teller,
		// branch and history, the remote-shard account, then two-phase
		// commit through the shard coordinator.
		{Name: "tpcb_dist", Body: []codegen.Frag{
			codegen.Seq(10), lib.ErrPath(), pick("sql", 8),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "upd_teller"},
			codegen.Call{Fn: "upd_branch"},
			codegen.Call{Fn: "upd_account"},
			codegen.Call{Fn: "ins_history"},
			codegen.Call{Fn: "dist_commit"},
			codegen.Seq(6), pick("rt", 4),
		}},
	}
}
