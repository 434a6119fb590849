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
		return nil, fmt.Errorf("ordere: bad scale %+v", sc)
	}
	sb, err := w.images.Load(fmt.Sprintf("%+v", sc), engs,
		func(engs []*db.Engine) (*Instance, error) { return load(sc, engs) }, (*Instance).bind)
	if err != nil {
		return nil, err
	}
	sb.crossPct = w.Partitioning().CrossShardPct
	return sb, nil
}

// load partitions the database by warehouse and loads each engine's share.
func load(sc Scale, engs []*db.Engine) (*Instance, error) {
	sb := &Instance{
		Map:      shard.Map{Shards: len(engs)},
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
	for i, eng := range engs {
		sh := i
		b, err := loadOwned(eng, sc, func(warehouse uint64) bool { return sb.whShard[warehouse] == sh })
		if err != nil {
			return nil, err
		}
		sb.Shards = append(sb.Shards, b)
	}
	return sb, nil
}

// bind returns a copy of sb over engs, engines holding a copy of sb's
// database: the partition tables are shared (nothing writes them after the
// load) and each shard's Bench is rebound to its engine.
func (sb *Instance) bind(engs []*db.Engine) *Instance {
	c := *sb
	c.Shards = make([]*Bench, len(engs))
	for i, b := range sb.Shards {
		c.Shards[i] = b.bind(engs[i])
	}
	return &c
}

// GenInput implements workload.Instance: the per-engine generator, except
// that a CrossShardPct fraction of Payments take their customer from a
// remote shard's warehouse. With no remote warehouse the draw is skipped
// before it touches the RNG.
func (sb *Instance) GenInput(r *rand.Rand) workload.Input {
	home := sb.Shards[0] // generators share one Scale; any bench works
	in := home.Gen(r)
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
	req := in.(Input)
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

// RunTxn implements workload.Instance.
func (sb *Instance) RunTxn(ss []*db.Session, in workload.Input) {
	req := in.(Input)
	home := sb.whShard[req.Warehouse]
	custShard := sb.whShard[req.CWarehouse]
	if req.Kind == NewOrder || custShard == home {
		sb.Shards[home].Run(ss[home], req)
		return
	}
	hs, rs := ss[home], ss[custShard]
	hb, rb := sb.Shards[home], sb.Shards[custShard]
	pb := hs.PB
	pb.Enter("payment_dist")
	defer pb.Leave("payment_dist")
	pb.Data(hs.ScratchAddr(1024), 256, true)
	hs.Begin()
	rs.Begin()
	hb.payWarehouse(hs, req)
	hb.payDistrict(hs, req)
	rb.payCustomer(rs, req)
	hb.payHistory(hs, req)
	shard.Commit2PC(hs, rs)
}

// RunMispredicted implements workload.Instance: a Payment whose customer
// turns out to live on another shard runs its home-side warehouse and
// district updates for real (the modeled txn_abort undo pays for them),
// then discovers the miss honestly when the customer search comes up empty
// on the home shard's tree, and unwinds through workload.Mispredict before
// touching any foreign engine.
func (sb *Instance) RunMispredicted(s *db.Session, in workload.Input) {
	req := in.(Input)
	home := sb.whShard[req.Warehouse]
	b := sb.Shards[home]
	pb := s.PB
	pb.Enter("payment_txn")
	defer pb.Leave("payment_txn")
	pb.Data(s.ScratchAddr(1024), 256, true)
	s.Begin()
	b.payWarehouse(s, req)
	b.payDistrict(s, req)
	pb.Enter("pay_customer")
	defer pb.Leave("pay_customer")
	if _, ok := b.Customers.Search(s, b.custGlobal(req)); ok {
		panic(fmt.Sprintf("ordere: remote customer %d found on home shard %d", b.custGlobal(req), home))
	}
	workload.Mispredict(pb)
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
