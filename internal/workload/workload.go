// Package workload defines the seam between the OLTP harness and the
// transaction mixes it runs. A Workload knows how to size itself (paper
// scale and a shrunken quick scale), how to partition and load its tables
// into one or more db.Engines, how to generate, route and execute
// transactions over the engines' sessions, how to check its own consistency
// invariants, and which code models it contributes to the modeled
// application binary (appmodel assembles the image from the engine models
// plus the workload's models).
//
// There is one engine topology: a loaded Instance is always the routed,
// partitioned one, and a single engine is its one-partition case — every
// key homes on shard 0, nothing is remote, and the distributed transaction
// variants never run.
//
// Everything above the storage engine — internal/machine, internal/appmodel,
// internal/expt, and the commands — programs against this interface, so new
// transaction mixes drop in without touching the simulator or the image
// builder. Implementations register themselves by name (see Register), the
// way layout passes register with internal/core.
//
// The seam has one shape: Workload and Instance are the whole contract, and
// no caller tests for an optional extension. Every workload labels its
// transaction kinds, names their entry models, declares its record schemas
// and runs the predictive fast path, so a wrapper that embeds either
// interface keeps all of it.
//
// It is a package of its own because it has two consumers that must not
// import each other: the image builder (appmodel) reads a workload's models
// and the simulator (machine) loads and runs it. tpcb, ordere and ycsb, and
// the shard router and predictor under them, implement or use the interface
// without importing either consumer. Its own test holds every registered
// workload to the contract's kind enumeration and checks each request's
// Route against the engines RunTxn and RunMispredicted actually touch; each
// workload's tests exercise the rest.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/probe"
)

// Input is one transaction request drawn by GenInput and consumed by
// RunTxn. Its concrete type is private to the workload.
type Input any

// Instance is a workload loaded across one or more engines: the handle
// server processes use to generate, route and run transactions.
type Instance interface {
	// GenInput draws one transaction request from the client's RNG; with
	// more than one engine a CrossShardPct fraction of requests touch a
	// remote shard.
	GenInput(r *rand.Rand) Input

	// Route describes in: where it runs, what kind it is and which
	// prediction class it belongs to. It is a pure function of the input;
	// the machine calls it once per request.
	Route(in Input) Route

	// RunTxn executes in over the per-shard sessions (ss[i] bound to
	// engine i; all sessions of one process share one probe), committing
	// through two-phase commit when the transaction touched two shards. A
	// request that is not Remote touches only its Home engine. It is the
	// instrumented top-level entry whose model roots the application call
	// graph; in must be a value produced by GenInput.
	RunTxn(ss []*db.Session, in Input)

	// RunMispredicted runs a request the predictive fast path wrongly
	// guessed local: the machine calls it only for a request whose Route is
	// Remote and whose class the predictor expected to stay single-shard,
	// with s the session on its Home engine. It runs the transaction there,
	// without the router or the 2PC coordinator, until it discovers the
	// remote touch, and then calls Mispredict — before reading or writing
	// anything on a foreign engine — so the machine can abort the home
	// branch and rerun it distributed. It never returns normally. It is
	// normally the local routine itself, whose branch for a row missing
	// from the home engine calls Mispredict; the machine accepts
	// ErrMispredict from this method alone.
	RunMispredicted(s *db.Session, in Input)

	// Check verifies the workload's consistency invariants (e.g. TPC-B
	// balance conservation) over the union of shards, through
	// uninstrumented sessions (ss[i] on engine i), without mutating data;
	// cross-shard conservation must hold globally even though no single
	// shard balances.
	Check(ss []*db.Session) error
}

// Route is what the machine needs to know about one request before running
// it, as Instance.Route derives it from the input.
type Route struct {
	// Home is the shard owning the request's partition key (always 0 on
	// one engine).
	Home int
	// Remote reports whether the request also touches a shard other than
	// Home (never on one engine).
	Remote bool
	// Kind is the transaction-kind label, drawn from the Kind column of the
	// workload's KindRoots. The machine keys its latency histograms by
	// (shard, kind) ("neworder" vs "payment", local vs distributed).
	Kind string
	// Class is the fast-path prediction class. Classes are coarser than or
	// equal to kinds: they must be computable from the client request
	// alone, without the routing outcome (a "tpcb" request's class is
	// "tpcb" whether or not it crosses shards).
	Class string
}

// Workload describes one OLTP benchmark at a specific scale.
type Workload interface {
	// Name is the registry name ("tpcb", "ordere", ...).
	Name() string

	// QuickScale returns a shrunken copy of the workload for fast CI and
	// bench runs, preserving every qualitative shape.
	QuickScale() Workload

	// DataPages estimates the resident data pages of the loaded database,
	// used to size buffer pools that should cache every table.
	DataPages() int

	// Partitioning describes the workload's partition scheme and
	// cross-shard transaction fraction.
	Partitioning() Partitioning

	// Load creates and populates the database through uninstrumented
	// sessions, hash-partitioned across the engines — engine i receives the
	// rows whose partition key maps to shard i — and returns the routed
	// instance. One engine is the one-partition case; none is a
	// NoEnginesError. The engines must be empty.
	//
	// The database depends only on the workload's scale and the engines'
	// geometry and field hints (db.Geometry) — never on a seed or the
	// engines' Env clock — so the workload loads it once per such key and
	// copies it into the engines of every later Load (Images,
	// db.Engine.CopyFrom). The workload hands Images a per-engine loader
	// and a bind for its per-shard handle, and builds the instance around
	// the shards Images returns. The workload value retains these
	// templates for as long as it lives.
	Load(engs []*db.Engine) (Instance, error)

	// Models returns the workload's contribution to the modeled application
	// binary: the FnSpecs of its transaction roots and helpers, mirroring
	// site for site the probe calls RunTxn emits. Their call sites into the
	// image's helper layers come from lib (Pick, ErrPath), the library the
	// image is linked from.
	Models(lib *codegen.Library) []codegen.FnSpec

	// KindRoots returns one (kind, entry model) pair per transaction kind
	// the instance's Route can produce, in a fixed deterministic order. The
	// txfuse layout pass seeds one fused placement unit per kind at the
	// named root and follows the profile's hottest call edges from there.
	KindRoots() []KindRoot

	// RecordSchemas returns the per-table field schemas that profile-guided
	// record layout permutes (expt.DataLayoutTable). They must cover every
	// table whose encode/decode paths resolve field offsets through
	// db.Table.FieldOffset.
	RecordSchemas() []TableSchema
}

// Partitioning declares how a workload splits across engines.
type Partitioning struct {
	// Key names the partition key ("branch", "warehouse", ...).
	Key string
	// CrossShardPct is the percentage of generated transactions that touch
	// a second shard (and therefore commit through two-phase commit) when
	// more than one shard is configured.
	CrossShardPct int
}

// DefaultCrossShardPct is the cross-shard transaction fraction the write
// workloads use unless overridden — the spirit of TPC-C's 15% remote
// Payment rate.
const DefaultCrossShardPct = 15

// EffectiveCrossShardPct normalizes a workload's cross-shard override: 0
// selects DefaultCrossShardPct, negative disables cross-shard traffic.
func EffectiveCrossShardPct(override int) int {
	switch {
	case override < 0:
		return 0
	case override == 0:
		return DefaultCrossShardPct
	default:
		return override
	}
}

// NoEnginesError is returned by Workload.Load when it is handed no engine.
type NoEnginesError struct {
	// Workload is the registry name of the workload that refused to load.
	Workload string
}

func (e *NoEnginesError) Error() string {
	return fmt.Sprintf("%s: Load needs at least one engine", e.Workload)
}

// KindRoot names the entry model of one transaction kind: the fn whose
// model roots the kind's hot call chain in the application image. Kind
// matches the labels Route.Kind carries; Root is the model fn name.
type KindRoot struct {
	Kind string
	Root string
}

// Predictor decides whether a transaction class is safe to run on the
// single-shard fast path (skipping the router and the 2PC coordinator). The
// machine trains it online from every finished transaction's observed
// cross-shard outcome and consults it before each new transaction.
// Implementations must be deterministic: given the same observation
// sequence, Local must return the same answers.
type Predictor interface {
	// Observe records one finished transaction's outcome: its class label,
	// home shard, and whether it actually touched a remote shard.
	Observe(class string, home int, remote bool)

	// Local predicts whether the next transaction of this class on this
	// home shard will stay single-shard. False routes the transaction down
	// the full distributed path, so false is always safe.
	Local(class string, home int) bool
}

// ErrMispredict is the longjmp value of the predictive fast path: a
// transaction predicted single-shard discovered mid-run that it needs a
// remote shard. The machine recovers it exactly like db.ErrDeadlock — abort
// every open branch through the modeled txn_abort path, then retry — except
// the retry is forced onto the slow distributed path. Raised anywhere but
// Instance.RunMispredicted it crashes the run.
var ErrMispredict = errors.New("workload: fast-path misprediction (transaction touches a remote shard)")

// Mispredict unwinds a fast-path transaction that turned out to need a
// remote shard: the probe suppresses the panic's deferred Leave events (the
// modeled engine longjmps, it does not return through every frame) and the
// machine recovers ErrMispredict to abort and re-route.
func Mispredict(pb probe.Probe) {
	pb.AbortUnwind()
	panic(ErrMispredict)
}
