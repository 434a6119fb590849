package search

import "math/rand"

// The catalogs the operators draw slot values from, whole pass specs. Every
// value must be a legal pass — genome_test cross-checks each against the
// registry so a catalog typo fails fast, not mid-search.
var (
	splits = []string{"split:none", "split:fine", "split:hotcold", "split:hotcold@2", "split:hotcold@4", "split:hotcold@8"}
	// ipchains carry ipchain's merge thresholds (minimum call-edge weight);
	// bare "ipchain" is the classic any-executed-edge merge.
	ipchains = []string{"ipchain", "ipchain:2", "ipchain:4", "ipchain:8", "ipchain:16", "ipchain:32"}
	// txfuses carry txfuse clone budgets in percent of pre-fusion hot words.
	txfuses = []string{"txfuse:2", "txfuse:5", "txfuse:8", "txfuse:10", "txfuse:15", "txfuse:20"}
	porders = []string{"porder:ph", "porder:orig"}
	aligns  = []string{"align:1", "align:2", "align:8", "align:16"}
	cfas    = []string{"cfa:65536/8192", "cfa:65536/16384", "cfa:65536/32768"}
)

func pick(rng *rand.Rand, vals []string) string { return vals[rng.Intn(len(vals))] }

// randomFuse draws a unit-merging stage: absent, ipchain with a random merge
// threshold, or txfuse with a random clone budget.
func randomFuse(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return ""
	case 1:
		return pick(rng, ipchains)
	default:
		return pick(rng, txfuses)
	}
}

// RandomGenome draws a uniform-ish random point of the search space: each
// structural stage present or absent with a fixed probability, parameters
// drawn from the catalogs.
func RandomGenome(rng *rand.Rand) Genome {
	var g Genome
	if rng.Float64() < 0.85 {
		g.chain = "chain"
	}
	g.split = pick(rng, splits)
	g.fuse = randomFuse(rng)
	g.order = pick(rng, porders)
	if rng.Float64() < 0.25 {
		g.cfa = pick(rng, cfas)
	}
	if rng.Float64() < 0.25 {
		g.align = pick(rng, aligns)
	}
	return g
}

// Mutate returns a mutated copy of the genome: one randomly chosen stage
// edit (toggle a stage, swap a fusion pass, or re-draw a parameter),
// retried until the genome actually changes.
func Mutate(g Genome, rng *rand.Rand) Genome {
	for attempt := 0; attempt < 32; attempt++ {
		out := g
		switch rng.Intn(6) {
		case 0: // toggle basic-block chaining
			if out.chain == "" {
				out.chain = "chain"
			} else {
				out.chain = ""
			}
		case 1: // re-draw the split mode / hot threshold
			out.split = pick(rng, splits)
		case 2: // swap or reparameterize the unit-merging stage
			out.fuse = randomFuse(rng)
		case 3: // flip the ordering variant
			out.order = pick(rng, porders)
		case 4: // toggle or reparameterize the conflict-free area
			if out.cfa == "" || rng.Intn(2) == 0 {
				out.cfa = pick(rng, cfas)
			} else {
				out.cfa = ""
			}
		case 5: // toggle or reparameterize the unit alignment
			if out.align == "" || rng.Intn(2) == 0 {
				out.align = pick(rng, aligns)
			} else {
				out.align = ""
			}
		}
		if out != g {
			return out
		}
	}
	return g // pathological rng stream; keep the parent
}

// Crossover mixes two parents stage-wise: each slot is inherited from one
// parent or the other, absence included.
func Crossover(a, b Genome, rng *rand.Rand) Genome {
	choose := func(x, y string) string {
		if rng.Intn(2) == 1 {
			return y
		}
		return x
	}
	return Genome{
		chain: choose(a.chain, b.chain),
		split: choose(a.split, b.split),
		fuse:  choose(a.fuse, b.fuse),
		order: choose(a.order, b.order),
		cfa:   choose(a.cfa, b.cfa),
		align: choose(a.align, b.align),
	}
}
