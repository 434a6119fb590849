package ordere

import (
	"fmt"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/workload"
)

func init() {
	workload.Register("ordere", func() workload.Workload { return New() })
}

// Workload adapts the order-entry bench to the workload seam.
type Workload struct {
	Scale Scale
	// CrossShardPct overrides the remote-Payment percentage on multi-engine
	// machines; 0 uses workload.DefaultCrossShardPct, negative disables
	// it.
	CrossShardPct int

	images workload.Images[*Bench]
}

// New returns the order-entry workload at default scale.
func New() *Workload { return NewScaled(DefaultScale()) }

// NewScaled returns the order-entry workload at an explicit scale.
func NewScaled(sc Scale) *Workload { return &Workload{Scale: sc} }

// Name implements workload.Workload.
func (w *Workload) Name() string { return "ordere" }

// Spec implements workload.Workload: the name, the scale and the cross-shard
// percentage in effect.
func (w *Workload) Spec() string {
	return fmt.Sprintf("%s:%s/cross%d", w.Name(), w.Scale.Spec(), w.Partitioning().CrossShardPct)
}

// QuickScale implements workload.Workload.
func (w *Workload) QuickScale() workload.Workload {
	return &Workload{
		Scale:         Scale{Warehouses: 3, DistrictsPerWarehouse: 4, CustomersPerDistrict: 60, Items: 300},
		CrossShardPct: w.CrossShardPct,
	}
}

// Partitioning implements workload.Workload: order-entry partitions
// on the warehouse, TPC-C's natural partition key.
func (w *Workload) Partitioning() workload.Partitioning {
	return workload.Partitioning{Key: "warehouse", CrossShardPct: workload.EffectiveCrossShardPct(w.CrossShardPct)}
}

// DataPages implements workload.Workload. Orders and lines grow during the
// run; callers add headroom on top of this loaded-table estimate.
func (w *Workload) DataPages() int {
	sc := w.Scale
	customers := sc.Warehouses * sc.DistrictsPerWarehouse * sc.CustomersPerDistrict
	stock := sc.Warehouses * sc.Items
	return customers/70 + stock/70 + sc.Warehouses*sc.DistrictsPerWarehouse + sc.Warehouses + 64
}

// RecordSchemas implements workload.Workload: the per-table field
// schemas the record-layout pass groups.
func (w *Workload) RecordSchemas() map[string][]db.FieldDef { return Schemas() }

// KindRoots implements workload.Workload: one entry model per transaction
// kind in the mix, including the distributed Payment the sharded variant
// labels "payment_dist".
func (w *Workload) KindRoots() []workload.KindRoot {
	return []workload.KindRoot{
		{Kind: "neworder", Root: "neworder_txn"},
		{Kind: "payment", Root: "payment_txn"},
		{Kind: "payment_dist", Root: "payment_dist"},
	}
}

// Models implements workload.Workload: the New-Order and Payment transaction
// models, mirroring site for site the probe calls RunTxn emits.
func (w *Workload) Models(lib *codegen.Library) []codegen.FnSpec {
	pick := lib.Pick
	return []codegen.FnSpec{
		{Name: "no_district", Body: []codegen.Frag{
			codegen.Seq(7), pick("sql", 6),
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "no_customer", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4), pick("cmp", 4),
			codegen.Seq(2),
		}},
		{Name: "no_stock", Body: []codegen.Frag{
			codegen.Seq(7), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "no_order", Body: []codegen.Frag{
			codegen.Seq(6), lib.ErrPath(), pick("sql", 5),
			codegen.Call{Fn: "heap_insert"},
			codegen.Call{Fn: "bt_insert"},
			codegen.Loop{Site: "no_insline", Head: 2, Body: []codegen.Frag{
				codegen.Seq(3), pick("row", 4),
				codegen.Call{Fn: "heap_insert"},
				codegen.Seq(2),
				codegen.Call{Fn: "bt_insert"},
			}},
			codegen.Seq(3),
		}},
		{Name: "no_total", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 5),
			codegen.Call{Fn: "bt_range"},
			codegen.Loop{Site: "no_sum", Head: 2, Body: []codegen.Frag{
				codegen.Seq(2),
				codegen.Call{Fn: "heap_fetch"},
				codegen.Seq(3),
			}},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "neworder_txn", Body: []codegen.Frag{
			codegen.Seq(10), lib.ErrPath(), pick("sql", 8),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "no_district"},
			codegen.Call{Fn: "no_customer"},
			codegen.Loop{Site: "no_line", Head: 3, Body: []codegen.Frag{
				codegen.Seq(4),
				codegen.Call{Fn: "no_stock"},
			}},
			codegen.Call{Fn: "no_order"},
			codegen.Call{Fn: "no_total"},
			codegen.Call{Fn: "txn_commit"},
			codegen.Seq(6), pick("rt", 4),
		}},
		{Name: "pay_warehouse", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 5),
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "pay_district", Body: []codegen.Frag{
			codegen.Seq(6), pick("sql", 5),
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(4), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "pay_customer", Body: []codegen.Frag{
			codegen.Seq(7), pick("sql", 6),
			codegen.Call{Fn: "bt_search"},
			codegen.Call{Fn: "lock_acquire"},
			codegen.Call{Fn: "heap_fetch"},
			codegen.Seq(5), pick("row", 4),
			codegen.Call{Fn: "heap_update"},
			codegen.Seq(3),
		}},
		{Name: "pay_history", Body: []codegen.Frag{
			codegen.Seq(5), pick("sql", 5),
			codegen.Call{Fn: "heap_insert"},
			codegen.Seq(3),
		}},
		{Name: "payment_txn", Body: []codegen.Frag{
			codegen.Seq(9), lib.ErrPath(), pick("sql", 8),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "pay_warehouse"},
			codegen.Call{Fn: "pay_district"},
			codegen.Call{Fn: "pay_customer"},
			codegen.Call{Fn: "pay_history"},
			codegen.Call{Fn: "txn_commit"},
			codegen.Seq(6), pick("rt", 4),
		}},
		// The distributed Payment (sharded machines): home warehouse,
		// district and history, the remote-shard customer, then two-phase
		// commit through the shard coordinator.
		{Name: "payment_dist", Body: []codegen.Frag{
			codegen.Seq(10), lib.ErrPath(), pick("sql", 8),
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "txn_begin"},
			codegen.Call{Fn: "pay_warehouse"},
			codegen.Call{Fn: "pay_district"},
			codegen.Call{Fn: "pay_customer"},
			codegen.Call{Fn: "pay_history"},
			codegen.Call{Fn: "dist_commit"},
			codegen.Seq(6), pick("rt", 4),
		}},
	}
}
