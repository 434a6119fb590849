package core

import (
	"fmt"
	"slices"
)

// Combo names one hand-built layout. Spec is its whole description: the
// pipeline spec ParsePipeline reads and the parsed pipeline prints back.
type Combo struct {
	Name string
	Spec string
}

// combos is the one list of hand-built layouts: the paper's Figure 7 /
// Figure 15 combinations in order, then the extensions measured next to
// them — Spike-distribution hot/cold splitting, the reserved conflict-free
// cache area (the software-trace-cache style optimization the paper found
// unprofitable for OLTP), inter-procedural call chaining, and
// per-transaction-kind program fusion. Run "fusion" through
// Pipeline.RunChained to supply kind roots and a procedure cloner; plain Run
// derives roots from the profile and skips cloning.
//
// The figures' "base" is not a row: it is the original binary
// (program.BaselineLayout), which no pipeline builds. The source-order
// pipeline stays spellable as "split:none,porder:orig,materialize".
var combos = []Combo{
	{"porder", "split:none,porder:ph,materialize"},
	{"chain", "chain,split:none,porder:orig,materialize"},
	{"chain+split", "chain,split:fine,porder:orig,materialize"},
	{"chain+porder", "chain,split:none,porder:ph,materialize"},
	{"all", "chain,split:fine,porder:ph,materialize"},
	{"hotcold", "chain,split:hotcold,porder:ph,materialize"},
	{"cfa", "chain,split:fine,porder:ph,cfa:65536/16384,materialize"},
	{"ipchain", "chain,split:none,ipchain,porder:ph,materialize"},
	{"fusion", "chain,split:none,txfuse,porder:ph,materialize"},
}

// Combos returns the hand-built layouts in table order.
func Combos() []Combo { return slices.Clone(combos) }

// ComboPipeline resolves a combo name to its pass pipeline.
func ComboPipeline(name string) (Pipeline, error) {
	for _, c := range combos {
		if c.Name == name {
			return ParsePipeline(c.Spec)
		}
	}
	return nil, fmt.Errorf("core: unknown optimization combo %q", name)
}

// Report summarizes what the optimizer did.
type Report struct {
	Chains           int
	Units            int
	HotUnits         int
	HotWords         int64
	LongBranches     int
	PadWords         int64
	CFAReservedWords int64
	// FusedKinds counts the transaction kinds txfuse fused into single
	// straight-line placement units.
	FusedKinds int
	// ClonedProcs counts the shared procedures txfuse duplicated into
	// fused units, and CloneWords their total size — the code growth the
	// fusion budget caps.
	ClonedProcs int
	CloneWords  int64
}
