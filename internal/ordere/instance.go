package ordere

import (
	"fmt"
	"math/rand"

	"codelayout/internal/db"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// Instance is the order-entry database hash-partitioned by warehouse across
// N >= 1 engines. New-Orders are always warehouse-local (TPC-C's
// home-warehouse stock simplification); with more than one engine a
// CrossShardPct fraction of Payments draw their customer from another
// shard's warehouse and commit through 2PC — the home shard takes the
// warehouse/district YTDs and the history row, the remote shard the customer
// balance. On one engine no warehouse is remote and every Payment is local.
//
// Lock order stays globally consistent (warehouse → district → customer,
// customer always last), so order-entry remains deadlock-free at every
// engine count; the TPC-B mix is the one that exercises distributed deadlock
// cycles.
type Instance struct {
	Map      shard.Map
	Shards   []*Bench
	crossPct int

	whShard  []int      // warehouse → owning shard
	remoteBy [][]uint64 // shard → warehouses on other shards
}

// Load implements workload.Workload. The database depends only on the scale
// and the engines' geometry: the workload loads it once per such key and
// copies it after that (workload.Images).
func (w *Workload) Load(engs []*db.Engine) (workload.Instance, error) {
	if len(engs) == 0 {
		return nil, &workload.NoEnginesError{Workload: w.Name()}
	}
	sc := w.Scale
	if sc.Warehouses <= 0 || sc.DistrictsPerWarehouse <= 0 ||
		sc.CustomersPerDistrict <= 0 || sc.Items <= 0 {
		return nil, fmt.Errorf("ordere: bad scale %s", sc.Spec())
	}
	shards, err := w.images.Load(sc.Spec(), engs,
		func(eng *db.Engine, own func(uint64) bool) (*Bench, error) { return loadOwned(eng, sc, own) }, (*Bench).bind)
	if err != nil {
		return nil, err
	}
	sb := &Instance{
		Map:      shard.Map{Shards: len(engs)},
		Shards:   shards,
		crossPct: w.Partitioning().CrossShardPct,
		whShard:  make([]int, sc.Warehouses),
		remoteBy: make([][]uint64, len(engs)),
	}
	for wh := 0; wh < sc.Warehouses; wh++ {
		home := sb.Map.Of(uint64(wh))
		sb.whShard[wh] = home
		for i := range engs {
			if i != home {
				sb.remoteBy[i] = append(sb.remoteBy[i], uint64(wh))
			}
		}
	}
	return sb, nil
}

// GenInput implements workload.Instance: the per-engine generator, except
// that a CrossShardPct fraction of Payments take their customer from a
// remote shard's warehouse. With no remote warehouse the draw is skipped
// before it touches the RNG. The request is a *Input, prev's when prev is
// one, refilled by Bench.Gen.
func (sb *Instance) GenInput(r *rand.Rand, prev workload.Input) workload.Input {
	in, _ := prev.(*Input)
	if in == nil {
		in = new(Input)
	}
	sb.Shards[0].Gen(r, in) // generators share one Scale; any bench works
	if in.Kind == Payment {
		remotes := sb.remoteBy[sb.whShard[in.Warehouse]]
		if len(remotes) > 0 && r.Intn(100) < sb.crossPct {
			in.CWarehouse = remotes[r.Intn(len(remotes))]
		}
	}
	return in
}

// Route implements workload.Instance. Remote Payments run the distributed
// 2PC variant and get their own latency kind. New-Orders and Payments
// predict separately (New-Orders are always local; Payments carry the
// cross-shard fraction), but the class must not leak the routing outcome, so
// local and remote Payments share one class.
func (sb *Instance) Route(in workload.Input) workload.Route {
	req := in.(*Input)
	home := sb.whShard[req.Warehouse]
	rt := workload.Route{Home: home, Remote: sb.whShard[req.CWarehouse] != home}
	switch {
	case req.Kind == NewOrder:
		rt.Kind, rt.Class = "neworder", "neworder"
	case rt.Remote:
		rt.Kind, rt.Class = "payment_dist", "payment"
	default:
		rt.Kind, rt.Class = "payment", "payment"
	}
	return rt
}

// RunTxn implements workload.Instance: a Payment runs on its home shard and
// its customer's, which are one shard unless the customer is remote.
func (sb *Instance) RunTxn(ss []*db.Session, in workload.Input) {
	req := *in.(*Input)
	home := sb.whShard[req.Warehouse]
	if req.Kind == NewOrder {
		sb.Shards[home].Run(ss[home], req)
		return
	}
	cust := sb.whShard[req.CWarehouse]
	payment(sb.Shards[home], ss[home], sb.Shards[cust], ss[cust], req)
}

// RunMispredicted implements workload.Instance: the local Payment on the
// home engine alone. It runs the warehouse and district updates for real
// (the modeled txn_abort undo pays for them), then discovers the miss
// honestly when the customer search comes up empty on the home shard's
// tree, and unwinds through workload.Mispredict before touching any foreign
// engine.
func (sb *Instance) RunMispredicted(s *db.Session, in workload.Input) {
	req := *in.(*Input)
	sb.Shards[sb.whShard[req.Warehouse]].Run(s, req)
}

// Check implements workload.Instance: every order's total equals the sum of
// its order-line amounts with the recorded line count (a per-shard audit),
// and payment flows are conserved over the union of shards — warehouse YTD =
// sum of district YTDs = sum of customer balances; remote Payments split
// them across two engines, so only the global sums agree.
func (sb *Instance) Check(ss []*db.Session) error {
	var whTotal, distTotal, custTotal int64
	for i, b := range sb.Shards {
		if err := b.checkOrders(ss[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		w, d, c := b.paymentSums(ss[i])
		whTotal += w
		distTotal += d
		custTotal += c
	}
	if whTotal != distTotal || custTotal != whTotal {
		return fmt.Errorf("ordere: payment flow diverged: warehouses=%d districts=%d customers=%d",
			whTotal, distTotal, custTotal)
	}
	return nil
}
