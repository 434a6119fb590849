// Package search evolves layout-pass pipelines against the measured
// simulator, AI-PROPELLER style: genomes are parameterized pipeline specs
// validated against the core.Pass registry, fitness is a weighted
// multi-workload objective measured through expt.Session's memoized
// quick-scale runs, and the engine is a deterministic, seedable
// (mu + lambda)-ish evolutionary loop with elitism, tournament selection,
// stage-wise crossover and plateau early stop. The point of the exercise:
// report whether evolved pipelines beat the paper's hand-built combos and
// whether the winners transfer across workloads.
package search

import (
	"fmt"
	"strings"

	"codelayout/internal/core"
)

// Genome is a parameterized pipeline: one slot per structural stage of the
// optimizer, each holding a pass spec ("split:hotcold@2", bare "ipchain") or
// "" when the stage is absent. Spec runs the filled slots in stage order and
// materializes last, so every Genome value is a legal pipeline and the
// operators edit slots freely without a repair step. The zero value is the
// do-nothing layout, "materialize". Adding a gene means adding a slot here,
// its case in slot, and a catalog in mutate.go.
type Genome struct {
	chain string // chain
	split string // split:<mode>
	fuse  string // ipchain[:<min>] or txfuse:<budget> — at most one merges units
	order string // porder:<mode>
	cfa   string // cfa:<cache>/<reserved>
	align string // align:<words>
}

// Spec renders the genome as its canonical comma-separated pipeline spec —
// the genome's identity: two genomes with equal specs are the same point in
// the search space and share one measurement.
func (g Genome) Spec() string {
	parts := make([]string, 0, 7)
	for _, s := range [...]string{g.chain, g.split, g.fuse, g.order, g.cfa, g.align} {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(append(parts, "materialize"), ",")
}

// slot returns the genome's slot for a base pass name, or nil when the pass
// has no search stage (materialize, which Spec always appends, included).
func (g *Genome) slot(name string) *string {
	switch name {
	case "chain":
		return &g.chain
	case "split":
		return &g.split
	case "ipchain", "txfuse":
		return &g.fuse
	case "porder":
		return &g.order
	case "cfa":
		return &g.cfa
	case "align":
		return &g.align
	}
	return nil
}

// ParseGenome parses a pipeline spec into a genome. Unknown pass names
// surface core's *UnknownPassError (listing the registry), bad arguments the
// pass factory's own error. Each field goes into its stage's slot, and the
// spec is accepted only if it is already canonical — its fields equal the
// Spec of the slots they filled — which rejects a missing or non-terminal
// materialize, a repeated pass, two unit-merging passes and stages out of
// order alike. On error the zero Genome is returned.
func ParseGenome(spec string) (Genome, error) {
	var g Genome
	var fields []string
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, arg, _ := strings.Cut(field, ":")
		name, arg = strings.TrimSpace(name), strings.TrimSpace(arg)
		if _, err := core.NewPass(field); err != nil {
			return Genome{}, err
		}
		if arg != "" {
			field = name + ":" + arg
		} else {
			field = name
		}
		if s := g.slot(name); s != nil {
			*s = field
		} else if name != "materialize" {
			return Genome{}, fmt.Errorf("search: pass %q has no search stage; add a Genome slot to make it evolvable", name)
		}
		fields = append(fields, field)
	}
	if canon := g.Spec(); strings.Join(fields, ",") != canon {
		return Genome{}, fmt.Errorf("search: genome %q is not canonical (its passes make %q): each stage runs at most once, in the order chain, split, ipchain|txfuse, porder, cfa, align, then materialize", spec, canon)
	}
	return g, nil
}
