package core_test

import (
	"testing"

	"codelayout/internal/core"
)

// FuzzParsePipeline: a pipeline spec is text from a command line. Whatever
// it is, ParsePipeline returns a pipeline or an error, never panics, and a
// parsed pipeline's String() is a fixed point: it parses back to the same
// passes. Seeded from every row of the combo table.
func FuzzParsePipeline(f *testing.F) {
	f.Add("split:none,porder:orig,materialize") // the source-order pipeline: no combo row, still a spec
	for _, c := range core.Combos() {
		f.Add(c.Spec)
	}
	f.Add(" chain , split : hotcold@3 ,, align:+8")
	f.Add("cfa:1/0,txfuse:-1,split:hotcold@0,bogus:,:")
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			if pl != nil {
				t.Fatalf("ParsePipeline(%q) returned a pipeline with error %v", spec, err)
			}
			return
		}
		if len(pl) == 0 {
			t.Fatalf("ParsePipeline(%q) returned an empty pipeline and no error", spec)
		}
		canon := pl.String()
		again, err := core.ParsePipeline(canon)
		if err != nil {
			t.Fatalf("ParsePipeline(%q).String() = %q does not parse: %v", spec, canon, err)
		}
		if len(again) != len(pl) || again.String() != canon {
			t.Fatalf("ParsePipeline(%q): %q re-parses to %q", spec, canon, again.String())
		}
	})
}
