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
// It is a package of its own because it has two consumers that must not
// import each other: the image builder (appmodel) reads a workload's models
// and the simulator (machine) loads and runs it. tpcb, ordere and ycsb, and
// the shard router and predictor under them, implement or use the interface
// without importing either consumer. It holds no logic to test on its own;
// each workload's tests exercise it.
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

	// Home returns the shard owning in's partition key (always 0 on one
	// engine).
	Home(in Input) int

	// Remote reports whether in also touches a shard other than Home(in)
	// (never on one engine).
	Remote(in Input) bool

	// RunTxn executes in over the per-shard sessions (ss[i] bound to
	// engine i; all sessions of one process share one probe), committing
	// through two-phase commit when the transaction touched two shards. It
	// is the instrumented top-level entry whose model roots the
	// application call graph; in must be a value produced by GenInput.
	RunTxn(ss []*db.Session, in Input)

	// Check verifies the workload's consistency invariants (e.g. TPC-B
	// balance conservation) over the union of shards, through
	// uninstrumented sessions (ss[i] on engine i), without mutating data;
	// cross-shard conservation must hold globally even though no single
	// shard balances.
	Check(ss []*db.Session) error
}

// Labeler is optionally implemented by workload instances that classify
// requests into transaction kinds. The machine keys its per-transaction
// latency histograms by (shard, kind), so a workload that labels its inputs
// gets a per-kind latency breakdown ("neworder" vs "payment", "read" vs
// "update", local vs distributed); an instance without labels is tracked
// under its workload's registry name. Labels must be a pure function of the
// input, drawn from a small fixed set.
type Labeler interface {
	// KindOf returns the transaction-kind label of an input produced by the
	// instance's own GenInput.
	KindOf(in Input) string
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
	// NoEnginesError.
	Load(engs []*db.Engine) (Instance, error)

	// Models returns the workload's contribution to the modeled application
	// binary: the FnSpecs of its transaction roots and helpers, mirroring
	// site for site the probe calls RunTxn emits. env supplies call-site
	// builders into the image's library layers.
	Models(env *ModelEnv) []codegen.FnSpec
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
// matches the labels Labeler.KindOf produces; Root is the model fn name.
type KindRoot struct {
	Kind string
	Root string
}

// KindRoots is implemented by workloads whose transaction kinds map to
// named entry models. The txfuse layout pass seeds one fused placement
// unit per kind at the named root and follows the profile's hottest call
// edges from there, so each kind's code approaches a straight-line sweep.
type KindRoots interface {
	// KindRoots returns one (kind, entry model) pair per transaction kind,
	// in a fixed deterministic order.
	KindRoots() []KindRoot
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
// the retry is forced onto the slow distributed path.
var ErrMispredict = errors.New("workload: fast-path misprediction (transaction touches a remote shard)")

// Mispredict unwinds a fast-path transaction that turned out to need a
// remote shard: the probe suppresses the panic's deferred Leave events (the
// modeled engine longjmps, it does not return through every frame) and the
// machine recovers ErrMispredict to abort and re-route.
func Mispredict(pb probe.Probe) {
	if a, ok := pb.(db.Aborter); ok {
		a.AbortUnwind()
	}
	panic(ErrMispredict)
}

// FastPath is implemented by instances that can run predicted-single-shard
// transactions on their home engine alone, without the router or the 2PC
// coordinator. A transaction that turns out to touch a remote shard after
// all must call Mispredict the moment it discovers this — before reading or
// writing anything on the foreign shard's engine — so the machine can abort
// the home branch and rerun it distributed.
type FastPath interface {
	Instance

	// Class labels an input with its prediction class. Classes are coarser
	// than or equal to Labeler kinds: they must be computable from the
	// client request alone, without peeking at the routing outcome (a
	// "tpcb" request's class is "tpcb" whether or not it crosses shards).
	Class(in Input) string

	// RunLocal executes in on its home engine's session assuming it stays
	// single-shard, calling Mispredict on discovery of a remote touch.
	RunLocal(s *db.Session, in Input)
}

// ModelEnv gives workload model builders access to the image's generated
// library layers, so workload code models dispatch into the same helper
// families the engine models use.
type ModelEnv struct {
	// Pick builds an indirect call site into a named library family
	// ("sql", "rt", "row", "cmp", ...) with the given dispatch width.
	Pick func(family string, width int) codegen.Frag
	// ErrPath builds an inline never-taken error-handling branch.
	ErrPath func() codegen.Frag
}
