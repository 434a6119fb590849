package tpcb

import (
	"fmt"
	"math/rand"

	"codelayout/internal/db"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// Instance is the TPC-B database hash-partitioned by branch across N >= 1
// engines: a teller's transaction homes on its branch's shard, and with more
// than one engine a CrossShardPct fraction of requests draw their account
// from another shard's branch, turning the classic transaction into a
// distributed one (home teller/branch/history plus a remote account update
// under 2PC). On one engine every branch is home and only the classic
// transaction runs.
//
// Local transactions keep the account→teller→branch lock order; distributed
// ones acquire their home locks first and the remote account last, so
// opposing cross-shard flows can form genuine distributed deadlock cycles —
// which the shared waits-for graph resolves by victim abort.
type Instance struct {
	Scale    Scale
	Map      shard.Map
	Shards   []*Bench
	crossPct int
	hotFrac  float64

	branchShard []int      // branch → owning shard
	localBy     [][]uint64 // shard → branches it owns
	remoteBy    [][]uint64 // shard → branches on other shards
}

// Load implements workload.Workload. The database depends only on the scale
// and the engines' geometry: the workload loads it once per such key and
// copies it after that (workload.Images).
func (w *Workload) Load(engs []*db.Engine) (workload.Instance, error) {
	if len(engs) == 0 {
		return nil, &workload.NoEnginesError{Workload: w.Name()}
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	sc := w.Scale
	shards, err := w.images.Load(sc.Spec(), engs,
		func(eng *db.Engine, own func(uint64) bool) (*Bench, error) { return loadOwned(eng, sc, own) }, (*Bench).bind)
	if err != nil {
		return nil, err
	}
	sb := &Instance{
		Scale:    sc,
		Map:      shard.Map{Shards: len(engs)},
		Shards:   shards,
		crossPct: w.Partitioning().CrossShardPct,
		hotFrac:  w.HotAccountFrac,

		branchShard: make([]int, sc.Branches),
		localBy:     make([][]uint64, len(engs)),
		remoteBy:    make([][]uint64, len(engs)),
	}
	for br := 0; br < sc.Branches; br++ {
		home := sb.Map.Of(uint64(br))
		sb.branchShard[br] = home
		for i := range engs {
			if i == home {
				sb.localBy[i] = append(sb.localBy[i], uint64(br))
			} else {
				sb.remoteBy[i] = append(sb.remoteBy[i], uint64(br))
			}
		}
	}
	for _, b := range shards {
		b.HotAccountFrac = w.HotAccountFrac
	}
	return sb, nil
}

// acctBranch returns the branch an account belongs to.
func (sb *Instance) acctBranch(acct uint64) uint64 {
	return acct / uint64(sb.Scale.AccountsPerBranch)
}

// GenInput implements workload.Instance: uniform teller (fixing the home
// branch and shard), then an account drawn from the home shard's branches —
// or, for a CrossShardPct fraction, from a remote shard's. A single
// partition keeps the classic draw order (teller, then one global account
// pick): the two orders consume the RNG differently, and results at every
// engine count are pinned to theirs. The request is a *Input, prev's when
// prev is one, overwritten whole.
func (sb *Instance) GenInput(r *rand.Rand, prev workload.Input) workload.Input {
	in, _ := prev.(*Input)
	if in == nil {
		in = new(Input)
	}
	if len(sb.Shards) == 1 {
		*in = sb.Shards[0].Gen(r)
		return in
	}
	sc := sb.Scale
	teller := uint64(r.Intn(sc.Branches * sc.TellersPerBranch))
	branch := teller / uint64(sc.TellersPerBranch)
	home := sb.branchShard[branch]
	pool := sb.localBy[home]
	if r.Intn(100) < sb.crossPct && len(sb.remoteBy[home]) > 0 {
		pool = sb.remoteBy[home]
	}
	acctBranch := pool[r.Intn(len(pool))]
	*in = Input{
		Account: acctBranch*uint64(sc.AccountsPerBranch) + uint64(hotIndex(r, sc.AccountsPerBranch, sb.hotFrac)),
		Teller:  teller,
		Branch:  branch,
		Delta:   r.Int63n(1_999_999) - 999_999,
	}
	return in
}

// Route implements workload.Instance. Cross-shard requests run the
// distributed 2PC variant, whose commit path (forced prepare plus the
// coordinator's forced commit) has its own latency kind. Every TPC-B request
// has one shape; whether it crosses shards is exactly what the predictor
// must guess, so the class cannot depend on it.
func (sb *Instance) Route(in workload.Input) workload.Route {
	req := in.(*Input)
	home := sb.branchShard[req.Branch]
	rt := workload.Route{Home: home, Kind: "tpcb", Class: "tpcb"}
	if sb.branchShard[sb.acctBranch(req.Account)] != home {
		rt.Remote, rt.Kind = true, "tpcb_dist"
	}
	return rt
}

// RunTxn implements workload.Instance: single-shard requests run the
// classic transaction on their home engine; cross-shard requests run the
// distributed variant — home teller/branch/history, remote account, 2PC.
func (sb *Instance) RunTxn(ss []*db.Session, in workload.Input) {
	req := *in.(*Input)
	home := sb.branchShard[req.Branch]
	acctShard := sb.branchShard[sb.acctBranch(req.Account)]
	if acctShard == home {
		sb.Shards[home].Run(ss[home], req)
		return
	}
	hs, rs := ss[home], ss[acctShard]
	hb, rb := sb.Shards[home], sb.Shards[acctShard]
	pb := hs.PB
	pb.Enter("tpcb_dist")
	defer pb.Leave("tpcb_dist")
	pb.Data(hs.ScratchAddr(1024), 256, true)
	hs.Begin()
	rs.Begin()
	hb.updTeller(hs, req.Teller, req.Delta)
	hb.updBranch(hs, req.Branch, req.Delta)
	rb.updAccount(rs, req.Account, req.Delta)
	hb.insHistory(hs, req)
	shard.Commit2PC(hs, rs)
}

// RunMispredicted implements workload.Instance: the classic transaction on
// the home engine alone, until the account turns out to live on another
// shard. The miss is discovered honestly — the account search misses on the
// home shard's tree (a modeled bt_found=false path, exactly what a real
// engine would execute) — and unwinds through workload.Mispredict before
// touching any foreign engine.
func (sb *Instance) RunMispredicted(s *db.Session, in workload.Input) {
	req := *in.(*Input)
	sb.Shards[sb.branchShard[req.Branch]].Run(s, req)
}

// Check implements workload.Instance: TPC-B balance conservation over the
// union of shards. Every transaction applies one delta to one account, one
// teller and one branch, so the three totals must agree; cross-shard
// transactions split their delta between two engines, so no single shard
// balances — only the global sums do.
func (sb *Instance) Check(ss []*db.Session) error {
	var accounts, tellers, branches int64
	for i, b := range sb.Shards {
		s := ss[i]
		for _, br := range b.owned {
			branches += b.BranchBalance(s, br)
			for t := 0; t < sb.Scale.TellersPerBranch; t++ {
				tellers += b.TellerBalance(s, br*uint64(sb.Scale.TellersPerBranch)+uint64(t))
			}
			for a := 0; a < sb.Scale.AccountsPerBranch; a++ {
				accounts += b.AccountBalance(s, br*uint64(sb.Scale.AccountsPerBranch)+uint64(a))
			}
		}
	}
	if accounts != branches || tellers != branches {
		return fmt.Errorf("tpcb: balances diverged: accounts=%d tellers=%d branches=%d",
			accounts, tellers, branches)
	}
	return nil
}
