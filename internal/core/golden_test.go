package core

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// legacyOptions is the oracle's own input: the options struct the monolithic
// pre-pipeline Optimize took.
type legacyOptions struct {
	Chain      bool
	Split      SplitMode
	PH         bool // Pettis–Hansen ordering; false keeps the link order
	AlignWords int  // 0 defaults to 4
	CFA        *CFAOptions
}

// legacyOptimize is a copy of the monolithic pre-pipeline Optimize. It is
// the golden reference: the pass-based path must reproduce its output bit
// for bit on every combination the paper measures.
func legacyOptimize(p *program.Program, pf *profile.Profile, o legacyOptions) (*program.Layout, *Report, error) {
	pf.EnsureEdges(p)
	rep := &Report{}

	// 1. Chain blocks within each procedure.
	chains := make(map[program.ProcID][]Chain, len(p.Procs))
	for _, pr := range p.Procs {
		if o.Chain && !pr.Cold {
			chains[pr.ID] = ChainProc(p, pr, pf)
		} else {
			chains[pr.ID] = SourceChains(pr)
		}
		rep.Chains += len(chains[pr.ID])
	}

	// 2. Cut into placement units.
	units := BuildUnits(p, pf, chains, o.Split)
	rep.Units = len(units)
	for _, u := range units {
		if u.Hot {
			rep.HotUnits++
			rep.HotWords += unitWords(p, u)
		}
	}

	// 3. Order units.
	var unitOrder []int
	if !o.PH {
		unitOrder = make([]int, len(units))
		for i := range units {
			unitOrder[i] = i
		}
		sort.SliceStable(unitOrder, func(a, b int) bool {
			ua, ub := units[unitOrder[a]], units[unitOrder[b]]
			if ua.Proc != ub.Proc {
				return ua.Proc < ub.Proc
			}
			return ua.Seq < ub.Seq
		})
	} else {
		hot := PettisHansen(p, pf, units)
		seen := make([]bool, len(units))
		for _, i := range hot {
			seen[i] = true
		}
		unitOrder = append(unitOrder, hot...)
		var cold []int
		for i := range units {
			if !seen[i] {
				cold = append(cold, i)
			}
		}
		sort.SliceStable(cold, func(a, b int) bool {
			ua, ub := units[cold[a]], units[cold[b]]
			if ua.Proc != ub.Proc {
				return ua.Proc < ub.Proc
			}
			return ua.Seq < ub.Seq
		})
		unitOrder = append(unitOrder, cold...)
	}

	// 4. Flatten and materialize.
	order := make([]program.BlockID, 0, p.NumBlocks())
	alignAt := make(map[program.BlockID]bool, len(units))
	for _, ui := range unitOrder {
		u := units[ui]
		if len(u.Blocks) == 0 {
			continue
		}
		alignAt[u.Blocks[0]] = true
		order = append(order, u.Blocks...)
	}
	align := o.AlignWords
	if align == 0 {
		align = 4
	}
	mopts := program.MaterializeOptions{
		AlignWords: align,
		AlignAt:    alignAt,
		FallFirst:  func(b *program.Block) bool { return pf.Count(b.Fall) > pf.Count(b.Taken) },
	}
	if o.CFA != nil {
		gaps, reserved := planCFA(p, units, unitOrder, *o.CFA)
		mopts.GapBefore = gaps
		rep.CFAReservedWords = reserved
	}
	l, err := program.Materialize(p, order, mopts)
	if err != nil {
		return nil, nil, err
	}
	rep.LongBranches = l.LongBranches
	rep.PadWords = l.PadWords
	return l, rep, nil
}

// goldenVariants are the layouts whose pipeline output must be identical to
// the legacy path: the paper's combos and the hotcold extension by table
// name; the source-order pipeline, a small-cache cfa geometry and a
// non-default alignment by spec.
var goldenVariants = []struct {
	layout string // combo name or pipeline spec
	opts   legacyOptions
}{
	{"split:none,porder:orig,materialize", legacyOptions{}},
	{"porder", legacyOptions{PH: true}},
	{"chain", legacyOptions{Chain: true}},
	{"chain+split", legacyOptions{Chain: true, Split: SplitFine}},
	{"chain+porder", legacyOptions{Chain: true, PH: true}},
	{"all", legacyOptions{Chain: true, Split: SplitFine, PH: true}},
	{"hotcold", legacyOptions{Chain: true, Split: SplitHotCold, PH: true}},
	{"chain,split:fine,porder:ph,cfa:4096/1024,materialize", legacyOptions{Chain: true, Split: SplitFine, PH: true,
		CFA: &CFAOptions{CacheBytes: 4096, ReservedBytes: 1024}}},
	{"chain,split:fine,porder:ph,align:8,materialize", legacyOptions{Chain: true, Split: SplitFine, PH: true, AlignWords: 8}},
}

func TestPipelineMatchesLegacyOptimize(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(9))
		pf := progtest.RandProfile(r, p, 5+r.Intn(25), 400)
		for _, c := range goldenVariants {
			want, wantRep, err := legacyOptimize(p, pf, c.opts)
			if err != nil {
				t.Fatalf("seed %d %s: legacy: %v", seed, c.layout, err)
			}
			pl, err := ComboPipeline(c.layout)
			if strings.ContainsAny(c.layout, ",:") { // a raw spec, told apart the way expt does
				pl, err = ParsePipeline(c.layout)
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.layout, err)
			}
			got, gotRep, err := pl.Run(p, pf)
			if err != nil {
				t.Fatalf("seed %d %s: pipeline: %v", seed, c.layout, err)
			}
			if !reflect.DeepEqual(got.Order, want.Order) {
				t.Fatalf("seed %d %s: block order diverged", seed, c.layout)
			}
			if !reflect.DeepEqual(got.Place, want.Place) {
				t.Fatalf("seed %d %s: placement words (addresses, occupancies) diverged", seed, c.layout)
			}
			if got.PadWords != want.PadWords {
				t.Fatalf("seed %d %s: pad words %d != %d", seed, c.layout, got.PadWords, want.PadWords)
			}
			if got.LongBranches != want.LongBranches {
				t.Fatalf("seed %d %s: long branches %d != %d", seed, c.layout, got.LongBranches, want.LongBranches)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("seed %d %s: report %+v != %+v", seed, c.layout, *gotRep, *wantRep)
			}
		}
	}
}
