// Package codegen models the machine-code image of the database engine (and
// any other modeled binary) and turns real engine execution into the
// instruction fetch stream that image would produce under a given layout.
//
// Each engine routine is described once, at build time, as a fragment tree —
// straight-line code, data-dependent branches and loops (identified by site
// IDs the engine reports through probe.Probe), calls to other modeled
// routines, and "auto" constructs whose outcomes are drawn from a seeded
// PRNG instead of engine events. Fragments are lowered to ordinary
// program.Blocks, so the resulting image is optimizable by internal/core
// like any binary; the Emitter then replays engine events over the CFG and
// emits address runs for whichever layout is installed.
package codegen

// Frag is one node of a function body model.
type Frag interface{ isFrag() }

// Seq is n words of straight-line code.
type Seq int

func (Seq) isFrag() {}

// If is a data-dependent two-way branch. The engine reports its outcome via
// probe.Branch(Site, takenThen); Then and Else may be empty.
type If struct {
	Site string
	Then []Frag
	Else []Frag
}

func (If) isFrag() {}

// Loop is a data-dependent pre-test loop. The engine reports
// probe.Branch(Site, true) before each iteration and probe.Branch(Site,
// false) to exit. Head is the number of words in the loop-test block.
type Loop struct {
	Site string
	Head int
	Body []Frag
}

func (Loop) isFrag() {}

// Call invokes another modeled function by name. If the callee is an auto
// function it executes without engine involvement; otherwise the engine must
// probe.Enter/Leave it at this point.
type Call struct{ Fn string }

func (Call) isFrag() {}

// AutoIf is a branch resolved by the emitter's PRNG: Then executes with
// probability Prob. It models data-dependent variability below the
// granularity the engine reports.
type AutoIf struct {
	Prob float64
	Then []Frag
	Else []Frag
}

func (AutoIf) isFrag() {}

// AutoLoop is a loop whose continuation is drawn per arrival with the given
// probability (geometric trip counts, mean Prob/(1-Prob)).
type AutoLoop struct {
	Prob float64
	Head int
	Body []Frag
}

func (AutoLoop) isFrag() {}

// AutoPick dispatches through an indirect call site to one of several auto
// functions, chosen by PRNG with the given relative weights (uniform when
// nil). It is how the image spreads execution across a wide library
// footprint, the way a database's helper layers do.
type AutoPick struct {
	Fns     []string
	Weights []uint32
}

func (AutoPick) isFrag() {}

// FnSpec declares one modeled function.
type FnSpec struct {
	Name string
	// Auto marks functions that execute without engine events; all their
	// decision points must be Auto* fragments and all their callees must be
	// auto functions.
	Auto bool
	// Cold marks never-executed static-image functions.
	Cold bool
	Body []Frag
}

// ImageSpec declares a whole binary: functions in link order.
type ImageSpec struct {
	Name     string
	TextBase uint64
	Fns      []FnSpec
}
