package core_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// callChainFixture builds a program with a hot loop in main calling f and g,
// plus cold procedures, and a profile where both call edges are hot. Block
// bodies are chosen so main's chained unit is not a multiple of the 4-word
// alignment, making unit-boundary padding observable.
func callChainFixture() (*program.Program, *profile.Profile, *program.Procedure, *program.Procedure, *program.Procedure) {
	p := program.New("ipchain-fixture", isa.AppTextBase)
	main := p.AddProc("main")
	f := p.AddProc("f")
	g := p.AddProc("g")

	b0 := p.AddBlock(main, 3) // entry, calls f
	b1 := p.AddBlock(main, 2) // calls g
	b2 := p.AddBlock(main, 2) // loop test
	b3 := p.AddBlock(main, 2) // exit
	f0 := p.AddBlock(f, 5)
	g0 := p.AddBlock(g, 7)

	b0.Kind, b0.Callee, b0.Fall = isa.TermCall, f.ID, b1.ID
	b1.Kind, b1.Callee, b1.Fall = isa.TermCall, g.ID, b2.ID
	b2.Kind, b2.Taken, b2.Fall = isa.TermCond, b0.ID, b3.ID
	b3.Kind = isa.TermRet
	f0.Kind = isa.TermRet
	g0.Kind = isa.TermRet

	for i := 0; i < 3; i++ {
		cold := p.AddProc("cold_" + string(rune('a'+i)))
		cold.Cold = true
		cb := p.AddBlock(cold, 6)
		cb.Kind = isa.TermRet
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}

	pf := profile.New("ipchain-train", p)
	for _, b := range []*program.Block{b0, b1, b2, f0, g0} {
		pf.AddBlock(b.ID, 100)
	}
	pf.AddBlock(b3.ID, 1)
	pf.AddEdge(b0.ID, f0.ID, 100) // call main -> f
	pf.AddEdge(b0.ID, b1.ID, 100) // continuation
	pf.AddEdge(b1.ID, g0.ID, 100) // call main -> g
	pf.AddEdge(b1.ID, b2.ID, 100) // continuation
	pf.AddEdge(b2.ID, b0.ID, 99)  // loop back
	pf.AddEdge(b2.ID, b3.ID, 1)   // exit
	return p, pf, main, f, g
}

func TestCallChainUnitsMergesHotCallEdges(t *testing.T) {
	p, pf, main, f, _ := callChainFixture()
	// Build the pre-ipchain units by hand to inspect the merge directly.
	chains := make(map[program.ProcID][]core.Chain, len(p.Procs))
	for _, pr := range p.Procs {
		if pr.Cold {
			chains[pr.ID] = core.SourceChains(pr)
		} else {
			chains[pr.ID] = core.ChainProc(p, pr, pf)
		}
	}
	units := core.BuildUnits(p, pf, chains, core.SplitNone)
	hotBefore := 0
	for _, u := range units {
		if u.Hot {
			hotBefore++
		}
	}
	merged := core.CallChainUnits(p, pf, units, 0)
	hotAfter := 0
	var mergedUnit *core.Unit
	for i, u := range merged {
		if u.Hot {
			hotAfter++
		}
		if u.Proc == main.ID && len(u.Blocks) > len(p.Proc(main.ID).Blocks) {
			mergedUnit = &merged[i]
		}
	}
	if hotAfter >= hotBefore {
		t.Fatalf("ipchain merged nothing: %d hot units before, %d after", hotBefore, hotAfter)
	}
	if mergedUnit == nil {
		t.Fatal("no merged caller/callee unit found")
	}
	// The callee's entry must be concatenated directly after main's blocks.
	fEntry := p.Entry(f.ID)
	mainLen := len(p.Proc(main.ID).Blocks)
	if mergedUnit.Blocks[mainLen] != fEntry {
		t.Fatalf("merged unit does not place f's entry after main: %v", mergedUnit.Blocks)
	}
	// Every block still appears exactly once across the merged units.
	seen := make(map[program.BlockID]bool)
	for _, u := range merged {
		for _, b := range u.Blocks {
			if seen[b] {
				t.Fatalf("block %d appears twice after merging", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != p.NumBlocks() {
		t.Fatalf("merged units cover %d blocks, program has %d", len(seen), p.NumBlocks())
	}
}

// TestIPChainChangesHotUnitAdjacency asserts the end-to-end property the pass
// exists for: under the ipchain combo, the hottest callee's entry is placed
// contiguously after the caller's unit (no alignment padding in between),
// which chain+porder does not do — it aligns every unit start.
func TestIPChainChangesHotUnitAdjacency(t *testing.T) {
	p, pf, main, f, _ := callChainFixture()

	adjacent := func(l *program.Layout) bool {
		fEntry := p.Entry(f.ID)
		mainTail := p.Proc(main.ID).Blocks[len(p.Proc(main.ID).Blocks)-1]
		return l.Addr(fEntry) == l.End(mainTail)
	}

	phPl, err := core.ComboPipeline("chain+porder")
	if err != nil {
		t.Fatal(err)
	}
	phLayout, phRep, err := phPl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	ipPl, err := core.ComboPipeline("ipchain")
	if err != nil {
		t.Fatal(err)
	}
	ipLayout, ipRep, err := ipPl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*program.Layout{phLayout, ipLayout} {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !adjacent(ipLayout) {
		t.Fatal("ipchain did not place f's entry contiguously after main")
	}
	if adjacent(phLayout) {
		t.Fatal("fixture broken: chain+porder already places f contiguously (alignment should pad)")
	}
	if ipRep.HotUnits >= phRep.HotUnits {
		t.Fatalf("ipchain did not reduce hot units: %d vs %d", ipRep.HotUnits, phRep.HotUnits)
	}
}

// TestIPChainValidOnRandomPrograms checks structural safety over arbitrary
// CFGs: every block placed once, layouts validate.
func TestIPChainValidOnRandomPrograms(t *testing.T) {
	pl, err := core.ComboPipeline("ipchain")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(8))
		pf := progtest.RandProfile(r, p, 5+r.Intn(20), 300)
		l, rep, err := pl.Run(p, pf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Units <= 0 {
			t.Fatalf("seed %d: empty report", seed)
		}
	}
}
