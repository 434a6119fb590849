// Package codelayout reproduces "Code Layout Optimizations for Transaction
// Processing Workloads" (Ramírez et al., ISCA 2001) as a Go library: a
// Spike-style profile-driven layout optimizer (basic block chaining,
// fine-grain procedure splitting, Pettis–Hansen procedure ordering), the
// OLTP system it is evaluated on (a TPC-B storage engine, modeled
// application and kernel code images, a multiprocessor full-system
// simulator), and the measurement stack (instruction caches with the
// paper's word-usage/lifetime/interference metrics, iTLB, unified L2,
// timing model) that regenerates every figure of the paper's evaluation.
//
// The package is a facade: it re-exports the stable surface of the internal
// packages so downstream users interact with one import.
//
//	img, _ := codelayout.BuildOLTPImage(codelayout.DefaultImageConfig(1))
//	base, _ := codelayout.BaselineLayout(img.Prog)
//	... run a profiling workload ...
//	opt, rep, _ := codelayout.Optimize(img.Prog, prof, codelayout.OptAll())
//
// See examples/ for complete programs and cmd/layoutlab for the experiment
// harness.
package codelayout

import (
	"io"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/db"
	"codelayout/internal/expt"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/reclayout"
	"codelayout/internal/search"
	"codelayout/internal/stats"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"

	_ "codelayout/internal/ordere" // register the order-entry workload
)

// Core program representation.
type (
	// Program is an executable image: procedures of basic blocks.
	Program = program.Program
	// Layout places a program's blocks at addresses.
	Layout = program.Layout
	// BlockID identifies a basic block.
	BlockID = program.BlockID
	// ProcID identifies a procedure.
	ProcID = program.ProcID
	// Profile carries basic-block and edge execution counts.
	Profile = profile.Profile
	// Image is a modeled binary with emitter annotations.
	Image = codegen.Image
	// Table is a rendered experiment result.
	Table = stats.Table
)

// Optimizer surface.
type (
	// OptimizeOptions selects the optimization combination.
	OptimizeOptions = core.Options
	// OptimizeReport summarizes what the optimizer did.
	OptimizeReport = core.Report
	// SplitMode selects procedure splitting (none, fine-grain, hot/cold).
	SplitMode = core.SplitMode
	// OrderMode selects procedure ordering (original or Pettis–Hansen).
	OrderMode = core.OrderMode
	// Pass is one stage of a layout pipeline.
	Pass = core.Pass
	// PassFactory builds a pass from its spec argument.
	PassFactory = core.PassFactory
	// Pipeline is an ordered list of layout passes.
	Pipeline = core.Pipeline
	// LayoutState is the shared state a pipeline threads through its passes.
	LayoutState = core.LayoutState
	// Unit is a placement unit: a run of blocks kept contiguous by ordering.
	Unit = core.Unit
)

// Splitting and ordering modes.
const (
	SplitNone         = core.SplitNone
	SplitFine         = core.SplitFine
	SplitHotCold      = core.SplitHotCold
	OrderOriginal     = core.OrderOriginal
	OrderPettisHansen = core.OrderPettisHansen
)

// Optimize lays out the program under the given options using the profile,
// exactly as Spike does: chaining, splitting, then ordering.
func Optimize(p *Program, prof *Profile, o OptimizeOptions) (*Layout, *OptimizeReport, error) {
	return core.Optimize(p, prof, o)
}

// OptAll returns the paper's full optimization combination
// (chain + fine-grain split + Pettis–Hansen ordering).
func OptAll() OptimizeOptions {
	return OptimizeOptions{Chain: true, Split: core.SplitFine, Order: core.OrderPettisHansen}
}

// Combos returns the paper's six optimization combinations in order
// (base, porder, chain, chain+split, chain+porder, all).
func Combos() []core.Combo { return core.Combos() }

// RegisterPass adds a custom layout pass to the pipeline registry under the
// given base name; pipeline specs may then reference it as "name" or
// "name:arg".
func RegisterPass(name string, f PassFactory) error { return core.RegisterPass(name, f) }

// RegisterPassDoc is RegisterPass with a one-line description shown by
// PassDocs and spike -list-passes.
func RegisterPassDoc(name, doc string, f PassFactory) error {
	return core.RegisterPassDoc(name, doc, f)
}

// RegisteredPasses lists the registered pass names, sorted.
func RegisteredPasses() []string { return core.RegisteredPasses() }

// PassDoc describes one registered pass for listings.
type PassDoc = core.PassDoc

// PassDocs returns every registered pass sorted by name with its one-line
// description.
func PassDocs() []PassDoc { return core.PassDocs() }

// ParsePipeline parses a comma-separated pass spec such as
// "chain,split:fine,porder:ph" into a runnable pipeline (materialization
// runs implicitly if the spec does not end in a materializing pass).
func ParsePipeline(spec string) (Pipeline, error) { return core.ParsePipeline(spec) }

// PipelineFor assembles the pass pipeline implementing the given options.
func PipelineFor(o OptimizeOptions) (Pipeline, error) { return core.PipelineFor(o) }

// ComboPipeline resolves a combo name (the paper's six plus "hotcold",
// "cfa", "ipchain" and "fusion") to its pass pipeline.
func ComboPipeline(name string) (Pipeline, error) { return core.ComboPipeline(name) }

// TxFuseSpec is the pipeline spec of the "fusion" combo: per-transaction-kind
// program fusion (the txfuse pass) between chaining and Pettis–Hansen
// ordering. Run it through Pipeline.RunFused with kind roots (FusionRoots)
// and a specialized image (Image.Specialize) to enable procedure cloning.
const TxFuseSpec = core.TxFuseSpec

// KindRoot seeds one fused placement unit: a transaction-kind label and the
// procedure of the kind's entry model.
type KindRoot = core.KindRoot

// FusionRoots resolves the transaction-kind roots the given workloads declare
// against an image, for Pipeline.RunFused.
func FusionRoots(img *Image, wls ...Workload) ([]KindRoot, error) {
	return appmodel.FusionRoots(img, wls...)
}

// BaselineLayout materializes the original (source-order) binary layout.
func BaselineLayout(p *Program) (*Layout, error) { return program.BaselineLayout(p) }

// Workload surface.
type (
	// Workload describes one OLTP benchmark at a specific scale.
	Workload = workload.Workload
	// WorkloadInstance is a workload loaded across one or more engines — the
	// routed instance; one engine is its one-partition case. Migration: the
	// separate sharded-workload alias is gone — every Workload partitions
	// (Workload.Partitioning; Load takes the engine slice).
	WorkloadInstance = workload.Instance
	// Partitioning declares a workload's shard scheme and cross-shard
	// transaction fraction.
	Partitioning = workload.Partitioning
	// Predictor classifies transactions as single-shard or distributed for
	// the predictive fast path (MachineConfig.PredictFastPath); the default
	// is a per-class frequency/Markov model trained from warmup.
	Predictor = workload.Predictor
)

// Workloads lists the registered workload names ("tpcb", "ordere", "ycsb",
// ...).
func Workloads() []string { return workload.Names() }

// NewWorkload returns the named workload at its default (paper) scale.
func NewWorkload(name string) (Workload, error) { return workload.New(name) }

// RegisterWorkload adds a user-defined mix to the name registry, making it
// reachable by every -workload flag, session option and experiment table
// without importing internal packages. It errors on duplicate names. See
// examples/customworkload for a complete program.
func RegisterWorkload(name string, f func() Workload) error {
	return workload.RegisterUser(name, f)
}

// TPCB returns the paper's TPC-B workload at default scale.
func TPCB() Workload { return tpcb.New() }

// TPCBScaled returns the TPC-B workload at an explicit scale.
func TPCBScaled(sc Scale) Workload { return tpcb.NewScaled(sc) }

// YCSB returns the key-value point-read workload at default scale (95/5
// read/update).
func YCSB() Workload { return ycsb.New() }

// YCSBMix returns a key-value workload variant with its own registry label
// and read percentage — the building block for user-defined mixes (register
// it with RegisterWorkload to make it addressable by name).
func YCSBMix(label string, readPct int) Workload {
	w := ycsb.New()
	w.Label = label
	w.ReadPct = readPct
	return w
}

// ImageConfig shapes the OLTP application image.
type ImageConfig = appmodel.Config

// DefaultImageConfig returns the paper-calibrated image shape for the TPC-B
// workload; set ImageConfig.Workload to model a different mix.
func DefaultImageConfig(seed int64) ImageConfig { return appmodel.DefaultConfig(seed, tpcb.New()) }

// BuildOLTPImage assembles the modeled database-engine binary.
func BuildOLTPImage(cfg ImageConfig) (*Image, error) { return appmodel.Build(cfg) }

// KernelConfig shapes the modeled kernel image.
type KernelConfig = kernel.Config

// DefaultKernelConfig returns the standard kernel shape.
func DefaultKernelConfig(seed int64) KernelConfig { return kernel.DefaultConfig(seed) }

// BuildKernelImage assembles the modeled operating-system binary.
func BuildKernelImage(cfg KernelConfig) (*Image, error) { return kernel.Build(cfg) }

// Machine surface.
type (
	// MachineConfig configures a full-system simulation run.
	MachineConfig = machine.Config
	// MachineResult reports a run's outcome.
	MachineResult = machine.Result
	// Machine is one configured simulation.
	Machine = machine.Machine
	// Scale sizes the TPC-B database.
	Scale = tpcb.Scale
	// LatencySummary condenses a per-transaction latency distribution into
	// mean, p50/p95/p99 and max (MachineResult.Latency, latency tables).
	LatencySummary = machine.LatencySummary
	// TxnLatency is one (shard, transaction kind) cell of a run's latency
	// breakdown (Machine.LatencyByKind).
	TxnLatency = machine.TxnLatency
	// AutoGCMode selects how the group-commit windows are auto-tuned from
	// warmup observations (MachineConfig.AutoGroupCommit).
	AutoGCMode = machine.AutoGCMode
)

// Group-commit auto-tuning modes.
const (
	// AutoGCOff disables group-commit auto-tuning.
	AutoGCOff = machine.AutoGCOff
	// AutoGCFlushCount tunes each shard's window for fewest log flushes.
	AutoGCFlushCount = machine.AutoGCFlushCount
	// AutoGCTargetP99 tunes each shard's window to minimize modeled p99
	// transaction latency.
	AutoGCTargetP99 = machine.AutoGCTargetP99
)

// NewMachine builds a full-system simulation (engine, loaded workload
// database, server processes).
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// DefaultScale returns the paper's 40-branch TPC-B scaling.
func DefaultScale() Scale { return tpcb.DefaultScale() }

// Experiment harness surface.
type (
	// Session owns memoized measurement runs over a profile source's images,
	// under the one training configuration it was opened with
	// (SessionOptions.Train). Migration: the method that re-pointed a
	// session's train config and the "From" variants of Layout, Report,
	// Measure and MeasureKern that took a TrainConfig per call are gone —
	// set o.Train.Workload (or .Shards, ...) and open a second session
	// over the same source with NewSessionFrom(src, o) instead.
	Session = expt.Session
	// SessionOptions configures a session.
	SessionOptions = expt.Options
	// TrainConfig is the train-side half of a session's configuration
	// (SessionOptions.Train): the workload, seed, shard count and length of
	// the profiling run the session's layouts are built from. Zero fields
	// inherit from the evaluation side.
	TrainConfig = expt.TrainConfig
	// ProfileSource owns shared images and memoized training runs and
	// layouts, so several sessions — one per train config — evaluate layouts
	// over one program.
	ProfileSource = expt.ProfileSource
	// RobustnessSpec configures the train×eval robustness matrix.
	RobustnessSpec = expt.RobustnessSpec
	// RobustnessResult carries the matrix cells and rendered tables.
	RobustnessResult = expt.RobustnessResult
	// LatencySpec configures the latency percentile tables.
	LatencySpec = expt.LatencySpec
	// ShardSweepSpec configures the shard-count sweep table (shard list,
	// layouts, fast-path delta columns).
	ShardSweepSpec = expt.ShardSweepSpec
)

// DefaultSessionOptions is the paper-scale configuration.
func DefaultSessionOptions() SessionOptions { return expt.DefaultOptions() }

// QuickSessionOptions is a fast, shape-preserving configuration.
func QuickSessionOptions() SessionOptions { return expt.QuickOptions() }

// NewSession builds the images and baseline layouts for experiments.
func NewSession(o SessionOptions) (*Session, error) { return expt.NewSession(o) }

// NewProfileSource builds shared images covering o's workload plus any
// extras, so sessions created with NewSessionFrom can transplant layouts
// trained on any covered workload.
func NewProfileSource(o SessionOptions, extra ...Workload) (*ProfileSource, error) {
	return expt.NewProfileSource(o, extra...)
}

// NewSessionFrom builds a session over a shared profile source.
func NewSessionFrom(src *ProfileSource, o SessionOptions) (*Session, error) {
	return expt.NewSessionFrom(src, o)
}

// Robustness runs the train×eval robustness matrix: every listed workload ×
// shard count is both a training configuration and an evaluation cell, and
// the tables report self-trained vs transplanted miss ratios — the
// profile-drift cost of reusing stale layouts.
func Robustness(o SessionOptions, spec RobustnessSpec) (*RobustnessResult, error) {
	return expt.Robustness(o, spec)
}

// ShardSweepTable is the shard sweep: an explicit shard list (up to 64) and
// optional predictive fast-path on/off delta columns (instr/txn, p99,
// predicted/mispredicted counts), with group commit as o configures it.
// Migration: the positional ShardSweep(o, counts, layouts) is gone — call
// ShardSweepTable(o, ShardSweepSpec{Shards: counts, Layouts: layouts}) —
// and so are the CPUs field of RobustnessSpec, LatencySpec, ShardSweepSpec,
// DataLayoutSpec and BlendSpec (set SessionOptions.CPUs) and the AutoGC and
// NoAutoGC fields of ShardSweepSpec: set SessionOptions.AutoGroupCommit
// (the sweep no longer defaults to AutoGCTargetP99; layoutlab's -gc does).
func ShardSweepTable(o SessionOptions, spec ShardSweepSpec) (*Table, error) {
	return expt.ShardSweepTable(o, spec)
}

// LatencyTables measures every workload × shard count cell under the
// original and the optimized layout and renders the per-transaction latency
// percentile tables (run-wide plus per shard × transaction kind).
func LatencyTables(o SessionOptions, spec LatencySpec) ([]*Table, error) {
	return expt.LatencyTables(o, spec)
}

// ExperimentIDs lists the reproducible figures and in-text results.
func ExperimentIDs() []string { return expt.IDs() }

// RunExperiment executes one experiment in the session.
func RunExperiment(s *Session, id string) ([]*Table, error) { return s.Run(id) }

// RunAllExperiments executes every experiment, rendering tables to w.
func RunAllExperiments(s *Session, w io.Writer) error { return s.RunAll(w) }

// NewPixie creates an exact (instrumentation) profile collector for the
// program; attach it as a machine's AppCollector.
func NewPixie(p *Program, name string) *profile.Pixie { return profile.NewPixie(p, name) }

// Continuous-PGO surface: the persistent profile store, aged-profile
// blending, and the online drift re-optimizer.
type (
	// ProfileStore is the persistent profile store: an in-memory LRU front
	// over content-hashed files, written atomically and tolerant of
	// corruption (a bad file is evicted and retrained, never fatal). Set
	// SessionOptions.ProfileStore to make repeated sessions skip training.
	ProfileStore = pstore.Store
	// ProfileStoreKey identifies one training run: the resolved train spec
	// plus the program-image fingerprints the profile's block IDs index.
	ProfileStoreKey = pstore.Key
	// ProfileStoreEntry is one stored training run (profiles plus the
	// observed transaction-kind mix the drift detector compares against).
	ProfileStoreEntry = pstore.Entry
	// ProfileStoreStats counts store traffic: every miss is a training run
	// executed, every hit one skipped.
	ProfileStoreStats = pstore.Stats
	// BlendSpec configures the aged-profile blending sweep.
	BlendSpec = expt.BlendSpec
	// BlendResult carries the sweep's measured cells and rendered table.
	BlendResult = expt.BlendResult
)

// ErrProfileStoreCorrupt is the sentinel wrapped by profile-store loads that
// find a damaged file (errors.Is-matchable; the store self-heals by evicting).
var ErrProfileStoreCorrupt = pstore.ErrCorrupt

// DefaultDriftThreshold is the L1 kind-mix distance past which the online
// re-optimizer retrains (MachineConfig.DriftThreshold = 0 selects it).
const DefaultDriftThreshold = machine.DefaultDriftThreshold

// OpenProfileStore opens the store rooted at dir, creating it if needed; an
// empty dir makes a memory-only store.
func OpenProfileStore(dir string) (*ProfileStore, error) { return pstore.Open(dir) }

// ReadProfileStoreEntry loads and verifies one store file; damaged files
// return an error wrapping ErrProfileStoreCorrupt.
func ReadProfileStoreEntry(path string) (*ProfileStoreEntry, error) { return pstore.ReadEntry(path) }

// BlendProfiles merges stored training runs under the given weights — the
// continuous-PGO answer to aging profiles: keep part of the stale mix while
// folding in the fresh one.
func BlendProfiles(entries []*ProfileStoreEntry, weights []float64) (*ProfileStoreEntry, error) {
	return pstore.Blend(entries, weights)
}

// BlendTable sweeps layouts built from stale/fresh profile blends across mix
// ratios and measures each under the drifted-to workload.
func BlendTable(o SessionOptions, spec BlendSpec) (*BlendResult, error) {
	return expt.BlendTable(o, spec)
}

// KindDistance is the L1 distance between two normalized transaction-kind
// mixes, in [0, 2]; the drift detector triggers when the live mix moves past
// MachineConfig.DriftThreshold from the training mix.
func KindDistance(a, b map[string]float64) float64 { return machine.KindDistance(a, b) }

// Evolutionary pipeline-search surface.
type (
	// SearchConfig parameterizes the evolutionary layout-pipeline search
	// (population, generations, seed, objective, weighted workloads).
	SearchConfig = search.Config
	// SearchResult carries the evolved winner, the hand-built baselines, the
	// per-generation trajectory, memo counters and the rendered transfer
	// table.
	SearchResult = search.Result
	// SearchObjective selects the minimized fitness metric (instr, miss,
	// p50, p99).
	SearchObjective = search.Objective
	// SearchWorkload is one weighted evaluation workload; the first entry of
	// SearchConfig.Workloads is the training workload.
	SearchWorkload = search.WorkloadWeight
	// PipelineGenome is a validated, parameterized pipeline spec — one point
	// of the search space.
	PipelineGenome = search.Genome
	// MemoStats reports a session's memoization counters (measure, layout,
	// train), via Session.MemoStats or SearchResult.Memo.
	MemoStats = expt.MemoStats
)

// SearchLayout evolves layout-pass pipelines against the measured simulator:
// genomes are pipeline specs validated against the pass registry, fitness is
// the weighted multi-workload objective normalized by the base layout, and
// every generation evaluates as one parallel memoized measurement wave. The
// hand-built combos seed the population, so the winner never scores worse
// than the best of them on the search objective.
func SearchLayout(o SessionOptions, cfg SearchConfig) (*SearchResult, error) {
	return search.Run(o, cfg)
}

// ParsePipelineGenome parses and validates a pipeline spec as a search
// genome (structural legality included, not just pass-name resolution).
func ParsePipelineGenome(spec string) (PipelineGenome, error) { return search.ParseGenome(spec) }

// ParseSearchObjective resolves an objective name ("instr", "miss", "p50",
// "p99"; empty selects instr).
func ParseSearchObjective(s string) (SearchObjective, error) { return search.ParseObjective(s) }

// Record-layout surface: profile-guided hot/cold field grouping of records
// on slotted pages — the data-cache analogue of the code-layout passes.
type (
	// FieldSchema declares one record field: its name, byte width, and
	// which transaction kinds read or write it (the static hot hint used
	// when no measured profile is available).
	FieldSchema = workload.FieldSchema
	// TableSchema declares one table's record fields in storage order.
	TableSchema = workload.TableSchema
	// FieldProfile is a measured field-access profile (table → field →
	// read/write tallies), harvested from a training run's engines.
	FieldProfile = reclayout.Profile
	// DataLayoutSpec configures the interleaved-vs-grouped record-layout
	// comparison table.
	DataLayoutSpec = expt.DataLayoutSpec
)

// GroupedRecordLayouts computes the grouped physical layout of every table
// the workload declares a schema for: hot fields (by measured profile, or
// the schema's static hints when prof is nil) packed contiguously at the
// record head. The result plugs into MachineConfig.RecordLayouts; set
// SessionOptions.RecordLayout = "grouped" to have sessions do this
// automatically from their training profile.
func GroupedRecordLayouts(wl Workload, prof FieldProfile) (map[string][]FieldDef, error) {
	return reclayout.GroupedDefs(wl, prof)
}

// FieldDef places one named field at a byte offset within a table's records.
type FieldDef = db.FieldDef

// DataLayoutTable measures interleaved vs grouped record layouts per
// key-distribution regime (uniform plus the workload's skew knob) with code
// layout held at base, so every delta is attributable to data layout alone.
func DataLayoutTable(o SessionOptions, spec DataLayoutSpec) (*Table, error) {
	return expt.DataLayoutTable(o, spec)
}
