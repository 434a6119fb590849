package ycsb

import (
	"fmt"
	"math/rand"

	"codelayout/internal/db"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// Instance is the key-value store hash-partitioned by record key across
// N >= 1 engines. Point reads and single-row updates are always shard-local
// — the trivial sharding of a key-value store — so the default mix has no
// distributed transactions at any engine count. With CrossShardPct > 0, that
// fraction of reads becomes a two-key scatter read whose second key lives on
// another shard; scatter reads stay read-only, so even then the workload
// never two-phase commits.
type Instance struct {
	Scale    Scale
	Map      shard.Map
	Shards   []*Bench
	crossPct int

	// hasRemote[i] reports whether any key lives off shard i. A shard that
	// owns the whole keyspace (one engine, or a keyspace that hashes onto
	// one shard) has no second key to scatter to.
	hasRemote []bool
}

// Load implements workload.Workload. The store depends only on the scale
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
	}
	readPct := w.ReadPct
	if readPct < 0 {
		readPct = DefaultReadPct
	}
	for _, b := range shards {
		sb.hasRemote = append(sb.hasRemote, len(b.owned) < sc.Records)
		// Shards[0] is the shared generator; the others carry the knobs for
		// consistency.
		b.ReadPct = readPct
		b.ShiftAfterGens, b.ShiftReadPct = w.ShiftAfterGens, w.ShiftReadPct
		b.SetZipfTheta(w.ZipfTheta)
	}
	return sb, nil
}

// GenInput implements workload.Instance: the per-engine generator, except
// that a CrossShardPct fraction of reads draws a second key from a remote
// shard (a scatter read). A read whose home shard owns every key stays a
// point read and consumes no extra RNG draws. The request is a *Input,
// prev's when prev is one; it is overwritten whole, so a scatter read's
// second key never carries over into the next request.
func (sb *Instance) GenInput(r *rand.Rand, prev workload.Input) workload.Input {
	in, _ := prev.(*Input)
	if in == nil {
		in = new(Input)
	}
	*in = sb.Shards[0].Gen(r) // generators share one Scale; any bench works
	if in.Kind != Read || sb.crossPct == 0 {
		return in
	}
	home := sb.Map.Of(in.Key)
	if sb.hasRemote[home] && r.Intn(100) < sb.crossPct {
		// Rejection-sample a key on a different shard; one exists, and the
		// hash spreads keys, so this terminates fast and deterministically.
		for {
			k2 := uint64(r.Intn(sb.Scale.Records))
			if sb.Map.Of(k2) != home {
				in.Key2, in.MultiGet = k2, true
				break
			}
		}
	}
	return in
}

// Route implements workload.Instance. Scatter reads touch two shards and
// get their own kind next to plain reads and updates. The class is the
// kind: scatter reads are declared in the client request itself (the second
// key is part of the input), so "mget" is an honestly separate class the
// predictor learns is never local; plain reads and updates are always local.
func (sb *Instance) Route(in workload.Input) workload.Route {
	req := in.(*Input)
	home := sb.Map.Of(req.Key)
	kind := "update"
	switch {
	case req.MultiGet:
		kind = "mget"
	case req.Kind == Read:
		kind = "read"
	}
	return workload.Route{Home: home, Remote: req.MultiGet && sb.Map.Of(req.Key2) != home, Kind: kind, Class: kind}
}

// RunTxn implements workload.Instance: everything is shard-local except
// scatter reads, which fetch the second key on its own shard's engine —
// still without any transaction or 2PC.
func (sb *Instance) RunTxn(ss []*db.Session, in workload.Input) {
	req := in.(*Input)
	home := sb.Map.Of(req.Key)
	if !req.MultiGet {
		sb.Shards[home].Run(ss[home], *req)
		return
	}
	remote := sb.Map.Of(req.Key2)
	pb := ss[home].PB
	pb.Enter("ycsb_mget")
	defer pb.Leave("ycsb_mget")
	pb.Data(ss[home].ScratchAddr(1024), 192, true)
	sb.Shards[home].runRead(ss[home], req.Key)
	sb.Shards[remote].runRead(ss[remote], req.Key2)
}

// RunMispredicted implements workload.Instance. Only a scatter read is
// Remote, and its class always observes remote, so reaching here means the
// predictor was driven by a stub; the request declares its second key up
// front, so it unwinds before any work.
func (sb *Instance) RunMispredicted(s *db.Session, in workload.Input) {
	workload.Mispredict(s.PB)
}

// Check implements workload.Instance: the per-record invariant is
// shard-local (no operation ever writes across shards), so the union audit
// is each shard's own audit.
func (sb *Instance) Check(ss []*db.Session) error {
	for i, b := range sb.Shards {
		if err := b.Check(ss[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
