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
// The package is a facade over the internal packages: what a program outside
// this module needs to build images, run the machine, optimize a layout,
// open an experiment session, and register its own passes and workloads.
//
//	img, _ := codelayout.BuildOLTPImage(codelayout.DefaultImageConfig(1))
//	base, _ := codelayout.BaselineLayout(img.Prog)
//	... run a profiling workload ...
//	pl, _ := codelayout.ComboPipeline("all")
//	opt, rep, _ := pl.Run(img.Prog, prof)
//
// See examples/ for complete programs and cmd/layoutlab for the experiment
// harness.
package codelayout

import (
	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
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
	// Image is a modeled binary with emitter annotations.
	Image = codegen.Image
)

// Optimizer surface. A layout has one description, its pipeline spec: parse
// one (ParsePipeline) or look a hand-built one up by name (ComboPipeline),
// then Pipeline.Run it over a program and a profile.
type (
	// Pass is one stage of a layout pipeline.
	Pass = core.Pass
	// PassFactory builds a pass from its spec argument.
	PassFactory = core.PassFactory
	// Pipeline is an ordered list of layout passes.
	Pipeline = core.Pipeline
	// LayoutState is the shared state a pipeline threads through its passes.
	LayoutState = core.LayoutState
	// Combo is one hand-built layout: a name and its pipeline spec.
	Combo = core.Combo
)

// Combos returns the hand-built layouts in order: the paper's five pipelines
// (porder, chain, chain+split, chain+porder, all; the figures' "base" is the
// original binary, BaselineLayout, not a pipeline), then hotcold, cfa,
// ipchain and fusion.
func Combos() []Combo { return core.Combos() }

// ComboPipeline resolves a combo name to its pass pipeline.
func ComboPipeline(name string) (Pipeline, error) { return core.ComboPipeline(name) }

// ParsePipeline parses a comma-separated pass spec such as
// "chain,split:fine,porder:ph" into a runnable pipeline (materialization
// runs implicitly if the spec does not end in a materializing pass).
func ParsePipeline(spec string) (Pipeline, error) { return core.ParsePipeline(spec) }

// RegisterPass adds a custom layout pass to the pipeline registry under the
// given base name; pipeline specs may then reference it as "name" or
// "name:arg".
func RegisterPass(name string, f PassFactory) error { return core.RegisterPass(name, f) }

// RegisteredPasses lists the registered pass names, sorted.
func RegisteredPasses() []string { return core.RegisteredPasses() }

// BaselineLayout materializes the original (source-order) binary layout.
func BaselineLayout(p *Program) (*Layout, error) { return program.BaselineLayout(p) }

// NewPixie creates an exact (instrumentation) profile collector for the
// program; attach it as a machine's AppCollector or an emitter's Collector.
// It counts into per-block slots, not into a profile: px.Profile() returns
// what was counted since NewPixie or the last px.Reset() as a profile of the
// caller's own, and is the only way to read it.
func NewPixie(p *Program, name string) *profile.Pixie { return profile.NewPixie(p, name) }

// Workload surface.
type (
	// Workload describes one OLTP benchmark at a specific scale.
	Workload = workload.Workload
	// WorkloadInstance is a workload loaded across one or more engines — the
	// routed instance; one engine is its one-partition case.
	WorkloadInstance = workload.Instance
	// Scale sizes the TPC-B database.
	Scale = tpcb.Scale
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
	// Machine is one configured simulation.
	Machine = machine.Machine
)

// NewMachine builds a full-system simulation (engine, loaded workload
// database, server processes).
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// Experiment harness surface.
type (
	// Session owns memoized measurement runs over a profile source's images,
	// under the one training configuration it was opened with
	// (SessionOptions.Train). Session.Run(id) executes one experiment;
	// "trained under X, evaluated under Y" is a second session over the same
	// source (NewSessionFrom) with o.Train set.
	Session = expt.Session
	// SessionOptions configures a session.
	SessionOptions = expt.Options
	// ProfileSource owns shared images and memoized training runs and
	// layouts, so several sessions — one per train config — evaluate layouts
	// over one program.
	ProfileSource = expt.ProfileSource
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

// ExperimentIDs lists the reproducible figures and in-text results, then
// the scorecard of the paper's claims (Session.Run takes one).
func ExperimentIDs() []string { return expt.IDs() }
