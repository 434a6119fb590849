package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// TestLayoutFileRoundTrip: a layout file is the layout that was saved, not a
// placement order to lay out again under defaults. Every row of the combo
// table, the source-order pipeline, a non-default alignment and a small cfa geometry (gaps that land on
// random programs) load back equal in everything the emitter and the
// reports read — including which arm each branch pair tests first, which
// the profile decided and the file must carry — and every loaded placement
// word holds the address progtest.CheckPlacement's own walk of the order
// gives the block.
func TestLayoutFileRoundTrip(t *testing.T) {
	var specs []string
	for _, c := range core.Combos() {
		specs = append(specs, c.Spec)
	}
	specs = append(specs,
		"split:none,porder:orig,materialize",
		"chain,split:fine,porder:ph,align:8,materialize",
		"chain,split:fine,porder:ph,cfa:4096/1024,align:2,materialize")
	fallFirst := 0
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 2+r.Intn(8))
		pf := progtest.RandProfile(r, p, 20, 300)
		for _, spec := range specs {
			l, _, err := runSpec(spec, p, pf)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec, err)
			}
			var buf bytes.Buffer
			if err := program.SaveLayout(&buf, l); err != nil {
				t.Fatal(err)
			}
			got, err := program.LoadLayout(&buf, p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec, err)
			}
			if err := progtest.CheckPlacement(got); err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec, err)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Order", got.Order, l.Order},
				{"Adj", got.Adj, l.Adj},
				{"Place", got.Place, l.Place},
				{"CondFirst", got.CondFirst, l.CondFirst},
				{"AlignWords", got.AlignWords, l.AlignWords},
				{"AlignAt", got.AlignAt, l.AlignAt},
				{"PadWords", got.PadWords, l.PadWords},
				{"LongBranches", got.LongBranches, l.LongBranches},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("seed %d %s: %s differs after the round trip", seed, spec, f.name)
				}
			}
			// An empty gap table may be a nil map on one side only.
			if len(got.GapBefore) != len(l.GapBefore) || (len(l.GapBefore) > 0 && !reflect.DeepEqual(got.GapBefore, l.GapBefore)) {
				t.Fatalf("seed %d %s: GapBefore differs after the round trip", seed, spec)
			}
			for _, b := range p.Blocks {
				if first := l.CondFirst[b.ID]; first != program.NoBlock && first == b.Fall && b.Fall != b.Taken {
					fallFirst++
				}
			}
		}
	}
	if fallFirst == 0 {
		t.Fatal("no branch pair tested its fall arm first: the test never exercised what the file must carry")
	}
}
