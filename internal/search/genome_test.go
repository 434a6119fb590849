package search

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/progtest"
)

func TestGenomeValidation(t *testing.T) {
	good := []string{
		"materialize", // the do-nothing layout is a legal point
		"chain,materialize",
		"chain,split:fine,porder:ph,materialize",
		"chain,split:none,ipchain,porder:ph,materialize",
		"chain,split:none,txfuse,porder:ph,materialize",
		"chain,split:hotcold@4,ipchain:8,porder:orig,cfa:65536/16384,align:8,materialize",
		"split:none,txfuse:15,porder:ph,materialize",
	}
	for _, spec := range good {
		g, err := ParseGenome(spec)
		if err != nil {
			t.Errorf("ParseGenome(%q): %v", spec, err)
			continue
		}
		if g.Spec() != spec {
			t.Errorf("ParseGenome(%q).Spec() = %q, want round-trip", spec, g.Spec())
		}
	}
	bad := map[string]string{
		"":                                       "not canonical",
		"chain":                                  "not canonical",
		"chain,materialize,porder:ph":            "not canonical",
		"chain,chain,materialize":                "not canonical",
		"materialize,materialize":                "not canonical",
		"porder:ph,chain,materialize":            "not canonical",
		"porder:ph,split:fine,materialize":       "not canonical",
		"chain,ipchain,txfuse,materialize":       "not canonical",
		"chain,bogus,materialize":                "unknown pass",
		"chain,split:hotcold@0,materialize":      "split",
		"chain,ipchain:nope,materialize":         "ipchain",
		"chain,split:fine,porder:zz,materialize": "unknown order mode",
	}
	for spec, frag := range bad {
		if _, err := ParseGenome(spec); err == nil {
			t.Errorf("ParseGenome(%q) accepted an illegal spec", spec)
		} else if !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseGenome(%q) error %q does not mention %q", spec, err, frag)
		}
	}
}

// TestUnknownPassErrorSurfaces pins that genome validation surfaces core's
// typed unknown-pass error, registry listing included.
func TestUnknownPassErrorSurfaces(t *testing.T) {
	_, err := ParseGenome("chain,warp9,materialize")
	if err == nil {
		t.Fatal("expected an error for an unknown pass")
	}
	var upe *core.UnknownPassError
	if !errorsAs(err, &upe) {
		t.Fatalf("error %T is not *core.UnknownPassError: %v", err, err)
	}
	if upe.Pass != "warp9" || len(upe.Valid) == 0 {
		t.Fatalf("unexpected typed error contents: %+v", upe)
	}
	if !strings.Contains(err.Error(), "txfuse") {
		t.Fatalf("error should list valid passes: %v", err)
	}
}

// errorsAs avoids importing errors just for one call site.
func errorsAs(err error, target **core.UnknownPassError) bool {
	for err != nil {
		if e, ok := err.(*core.UnknownPassError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestCatalogsAreLegal cross-checks every mutation-catalog value against the
// pass registry, so a catalog typo fails in tests, not mid-search.
func TestCatalogsAreLegal(t *testing.T) {
	for _, catalog := range [][]string{splits, ipchains, txfuses, porders, aligns, cfas} {
		for _, spec := range catalog {
			if _, err := core.NewPass(spec); err != nil {
				t.Errorf("catalog value %q is not a legal pass: %v", spec, err)
			}
		}
	}
}

// TestSearchSpaceIsLegal enumerates every genome the catalogs can form —
// each slot absent or any catalog value — and checks each parses back to
// itself and runs through core's pipeline, runtime stage guards included,
// over a small random program.
func TestSearchSpaceIsLegal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := progtest.RandProgram(r, 6)
	pf := progtest.RandProfile(r, p, 10, 200)
	orAbsent := func(vals ...[]string) []string {
		return append([]string{""}, slices.Concat(vals...)...)
	}
	n := 0
	for _, chain := range []string{"", "chain"} {
		for _, split := range splits {
			for _, fuse := range orAbsent(ipchains, txfuses) {
				for _, order := range porders {
					for _, cfa := range orAbsent(cfas) {
						for _, align := range orAbsent(aligns) {
							g := Genome{chain: chain, split: split, fuse: fuse, order: order, cfa: cfa, align: align}
							spec := g.Spec()
							if back, err := ParseGenome(spec); err != nil || back != g {
								t.Fatalf("ParseGenome(%q) = %+v, %v; want the genome back", spec, back, err)
							}
							pl, err := core.ParsePipeline(spec)
							if err != nil {
								t.Fatal(err)
							}
							if _, _, err := pl.Run(p, pf.Clone()); err != nil {
								t.Fatalf("%q: %v", spec, err)
							}
							n++
						}
					}
				}
			}
		}
	}
	if want := 2 * 6 * 13 * 2 * 4 * 5; n != want {
		t.Fatalf("enumerated %d genomes, want %d", n, want)
	}
}

// TestOperatorsPreserveLegality fuzzes the operators: every random genome,
// mutation, and crossover product must parse back to itself, and Mutate must
// actually change the spec.
func TestOperatorsPreserveLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := make([]Genome, 0, 64)
	for i := 0; i < 64; i++ {
		g := RandomGenome(rng)
		if err := roundTrips(g); err != nil {
			t.Fatalf("RandomGenome produced an illegal genome %q: %v", g.Spec(), err)
		}
		pool = append(pool, g)
	}
	for i := 0; i < 500; i++ {
		parent := pool[rng.Intn(len(pool))]
		child := Mutate(parent, rng)
		if err := roundTrips(child); err != nil {
			t.Fatalf("Mutate(%q) -> illegal %q: %v", parent.Spec(), child.Spec(), err)
		}
		if child.Spec() == parent.Spec() {
			t.Fatalf("Mutate(%q) returned an identical spec", parent.Spec())
		}
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		cross := Crossover(a, b, rng)
		if err := roundTrips(cross); err != nil {
			t.Fatalf("Crossover(%q, %q) -> illegal %q: %v", a.Spec(), b.Spec(), cross.Spec(), err)
		}
	}
}

// roundTrips reports whether the genome's spec parses back to the genome.
func roundTrips(g Genome) error {
	back, err := ParseGenome(g.Spec())
	if err != nil {
		return err
	}
	if back != g {
		return fmt.Errorf("parses back to %q", back.Spec())
	}
	return nil
}

// TestHandBuiltSeedsValidate: the seeds and the baselines are rows of core's
// combo table, named not re-typed — each seed genome is its row's spec, the
// two extension combos are among the seeds, and every baseline is a row or
// "base", the original binary.
func TestHandBuiltSeedsValidate(t *testing.T) {
	table := make(map[string]string)
	for _, c := range core.Combos() {
		table[c.Name] = c.Spec
	}
	seeds, err := handBuiltSeeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(seedNames) {
		t.Fatalf("%d seeds for %d names", len(seeds), len(seedNames))
	}
	for i, name := range seedNames {
		if spec, ok := table[name]; !ok || seeds[i].Spec() != spec {
			t.Errorf("seed %q = %q, want the combo table's %q", name, seeds[i].Spec(), spec)
		}
	}
	for _, want := range []string{"ipchain", "fusion"} {
		if !slices.Contains(seedNames, want) {
			t.Errorf("seed list is missing the hand-built combo %q", want)
		}
	}
	for _, name := range baselineNames {
		if _, ok := table[name]; !ok && name != "base" {
			t.Errorf("baseline %q is neither base nor a row of the combo table", name)
		}
	}
}

func TestParseObjective(t *testing.T) {
	for _, s := range []string{"", "instr", "miss", "p50", "p99"} {
		if _, err := ParseObjective(s); err != nil {
			t.Errorf("ParseObjective(%q): %v", s, err)
		}
	}
	if _, err := ParseObjective("tps"); err == nil {
		t.Error("ParseObjective accepted an unknown objective")
	}
}
