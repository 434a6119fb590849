package search

import (
	"testing"

	"codelayout/internal/core"
)

// FuzzParseGenome: whatever the spec, ParseGenome returns a genome or an
// error and never panics; a parsed genome validates, is a pipeline core
// accepts, and its Spec() is a fixed point that parses back to itself.
// Seeded from the hand-built pipelines every search starts from.
func FuzzParseGenome(f *testing.F) {
	seeds, err := handBuiltSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range seeds {
		f.Add(g.Spec())
	}
	f.Add(" chain , split : hotcold@3 , align:+8 ,, materialize ")
	f.Add("materialize,chain")
	f.Add("chain,chain,materialize")
	f.Add("ipchain,txfuse:5,materialize")
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGenome(spec)
		if err != nil {
			if g != nil {
				t.Fatalf("ParseGenome(%q) returned a genome with error %v", spec, err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseGenome(%q) returned an invalid genome: %v", spec, err)
		}
		canon := g.Spec()
		if _, err := core.ParsePipeline(canon); err != nil {
			t.Fatalf("ParseGenome(%q).Spec() = %q is not a pipeline: %v", spec, canon, err)
		}
		again, err := ParseGenome(canon)
		if err != nil {
			t.Fatalf("ParseGenome(%q).Spec() = %q does not parse: %v", spec, canon, err)
		}
		if again.Spec() != canon {
			t.Fatalf("ParseGenome(%q): %q re-parses to %q", spec, canon, again.Spec())
		}
	})
}
