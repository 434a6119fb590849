package search

import (
	"strings"
	"testing"

	"codelayout/internal/core"
)

// FuzzParseGenome: whatever the spec, ParseGenome returns a genome or the
// zero Genome with an error and never panics. An accepted spec is already
// canonical: its fields, each trimmed around the name and the argument,
// are the genome's Spec(), a pipeline core accepts that parses back to
// itself. Seeded from the hand-built pipelines every search starts from.
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
			if g != (Genome{}) {
				t.Fatalf("ParseGenome(%q) returned a genome with error %v", spec, err)
			}
			return
		}
		var fields []string
		for _, f := range strings.Split(spec, ",") {
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			name, arg, _ := strings.Cut(f, ":")
			if f = strings.TrimSpace(name); strings.TrimSpace(arg) != "" {
				f += ":" + strings.TrimSpace(arg)
			}
			fields = append(fields, f)
		}
		canon := g.Spec()
		if norm := strings.Join(fields, ","); norm != canon {
			t.Fatalf("ParseGenome(%q) accepted fields %q, not its Spec() %q", spec, norm, canon)
		}
		if _, err := core.ParsePipeline(canon); err != nil {
			t.Fatalf("ParseGenome(%q).Spec() = %q is not a pipeline: %v", spec, canon, err)
		}
		again, err := ParseGenome(canon)
		if err != nil {
			t.Fatalf("ParseGenome(%q).Spec() = %q does not parse: %v", spec, canon, err)
		}
		if again != g {
			t.Fatalf("ParseGenome(%q): %q re-parses to %q", spec, canon, again.Spec())
		}
	})
}
