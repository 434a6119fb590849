package expt

import (
	"fmt"
	"sort"

	"codelayout/internal/stats"
)

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Paper string // which paper artifact this regenerates
	Title string
	Run   func(*Session) ([]*stats.Table, error)
}

var registry = []Experiment{
	{"fig03", "Figure 3", "Execution profile of the unoptimized binary", fig03},
	{"fig04", "Figure 4", "Application icache misses across cache and line sizes", ofPair(fig04)},
	{"fig05", "Figure 5", "Relative misses, optimized over baseline", ofPair(fig05)},
	{"fig06", "Figure 6", "Associativity impact", ofPair(fig06)},
	{"fig07", "Figure 7", "Impact of each optimization combination", fig07},
	{"fig08", "Figure 8", "Sequentially executed instructions", ofPair(fig08)},
	{"fig09", "Figure 9", "Unique word usage before replacement", ofPair(fig09)},
	{"fig10", "Figure 10", "Word reuse before replacement", ofPair(fig10)},
	{"fig11", "Figure 11", "Cache line lifetimes", ofPair(fig11)},
	{"fig12", "Figure 12", "Combined application and kernel streams", ofPair(fig12)},
	{"fig13", "Figure 13", "Application/kernel interference", ofPair(fig13)},
	{"fig14", "Figure 14", "iTLB and L2 cache behavior", ofPair(fig14)},
	{"fig15", "Figure 15", "Relative execution time per optimization", fig15},
	{"footprint", "§4.1 text", "Code packing: footprint and unused fetches", ofPair(footprintExp)},
	{"hw21164", "§5 text", "21164 hardware-counter results", hw21164Exp},
	{"speedup", "§5 text", "Overall speedups (1P, 4P, SimOS)", speedupExp},
	{"kernopt", "§5 text", "Kernel layout optimization", kernoptExp},
	{"abl-split", "ablation", "Fine-grain vs hot/cold splitting", ablSplit},
	{"abl-cfa", "ablation", "CFA reserved-area negative result", ablCFA},
	{"abl-profile", "ablation", "Pixie vs DCPI profiles", ablProfile},
	{"claims", "scorecard", "How close to the paper: each claim against its band", claimsExp},
}

// IDs lists experiment IDs in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
}

// Run executes one experiment in the session.
func (s *Session) Run(id string) ([]*stats.Table, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(s)
}

// Summary returns a sorted one-line-per-experiment description.
func Summary() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, fmt.Sprintf("%-12s %-10s %s", e.ID, e.Paper, e.Title))
	}
	sort.Strings(out)
	return out
}
