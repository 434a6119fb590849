// Package shard is the router layer that turns one simulated machine into N
// partitioned database engines: hash partitioning of workload partition
// keys, the instrumented request router that picks a transaction's home
// engine, and the two-phase-commit coordinator for transactions that touch
// more than one shard.
//
// The router and coordinator are part of the modeled application binary —
// Models contributes their code models to the image the same way workloads
// contribute transaction models — so sharded runs present the layout passes
// with a genuinely different hot footprint: the route/2PC code joins the
// profile, and the per-commit log force splits across per-shard group
// commits.
//
// It is a package because the packages that share it cannot hold it: the
// three workloads (tpcb, ordere, ycsb) route and commit through it and must
// not import each other, workload.Images partitions each load by Map,
// appmodel links the models into the image without importing any workload,
// and machine runs every routed transaction through Route. It needs only
// codegen, db and probe, so every one of them can import it.
package shard

import (
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/probe"
)

// Map hash-partitions partition keys over a shard count.
type Map struct {
	Shards int
}

// Of returns the shard owning a partition key.
func (m Map) Of(key uint64) int {
	if m.Shards <= 1 {
		return 0
	}
	h := key * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(m.Shards))
}

// dirAddr places the shard directory (partition map) in the shared data
// segment; every routed request reads its home shard's entry.
func dirAddr(home int) uint64 {
	return db.DataBase + 0x7F00_0000 + uint64(home)*128
}

// Route emits the request router's instruction stream: the partition-key
// hash, the shard-directory lookup, and the extra coordinator-setup path
// for transactions that will touch a remote shard. It is called once per
// transaction on sharded machines, before the workload executes.
func Route(pb probe.Probe, home int, remote bool) {
	pb.Enter("shard_route")
	defer pb.Leave("shard_route")
	pb.Data(dirAddr(home), 64, false)
	pb.Branch("route_remote", remote)
}

// Commit2PC commits a distributed transaction: every remote participant
// force-logs a prepare record (making its locks and updates durable pending
// the decision), the coordinator commits — the commit point, forced through
// its shard's group commit — and the participants then resolve with
// unforced commit records. All sessions belong to one server process, so
// the probe stream interleaves exactly as the modeled coordinator would
// execute. The extra forced log wait per participant is why the machine's
// per-kind latency breakdown shows the distributed kinds ("tpcb_dist",
// "payment_dist") with a visibly heavier tail than their local twins.
func Commit2PC(coord *db.Session, parts ...*db.Session) {
	pb := coord.PB
	pb.Enter("dist_commit")
	defer pb.Leave("dist_commit")
	pb.Data(coord.ScratchAddr(1536), 192, true) // coordinator state record
	for _, p := range parts {
		pb.Branch("dc_prep", true)
		p.Prepare()
	}
	pb.Branch("dc_prep", false)
	coord.Commit()
	for _, p := range parts {
		pb.Branch("dc_ack", true)
		p.CommitPrepared()
	}
	pb.Branch("dc_ack", false)
}

// Models returns the router/coordinator code models contributed to the
// modeled application image, mirroring site for site the probe calls Route
// and Commit2PC emit.
func Models(lib *codegen.Library) []codegen.FnSpec {
	pick := lib.Pick
	return []codegen.FnSpec{
		{Name: "shard_route", Body: []codegen.Frag{
			codegen.Seq(6), pick("rt", 4),
			codegen.If{Site: "route_remote",
				Then: []codegen.Frag{codegen.Seq(7), pick("rt", 4)}},
			codegen.Seq(3),
		}},
		{Name: "dist_commit", Body: []codegen.Frag{
			codegen.Seq(7), lib.ErrPath(), pick("rt", 4),
			codegen.Loop{Site: "dc_prep", Head: 3, Body: []codegen.Frag{
				codegen.Seq(5), codegen.Call{Fn: "txn_prepare"}, codegen.Seq(2),
			}},
			codegen.Seq(3),
			codegen.Call{Fn: "txn_commit"},
			codegen.Loop{Site: "dc_ack", Head: 3, Body: []codegen.Frag{
				codegen.Seq(4), codegen.Call{Fn: "txn_resolve"}, codegen.Seq(2),
			}},
			codegen.Seq(3),
		}},
	}
}
