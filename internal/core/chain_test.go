package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// buildFigure1 builds a procedure shaped like the paper's Figure 1(a):
// an entry A1 conditional splitting 0.6/0.4 into two paths that re-join,
// plus a loop-free tail.
//
//	A1 -cond-> A2 (w=6)  and A5 (w=4)
//	A2 -fall-> A3 (6); A3 -fall-> A4 (6); A4 -br-> A8 (6)
//	A5 -fall-> A6 (4); A6 -cond-> A7 (2.4) / A8 (1.6)
//	A7 -fall-> A8; A8 ret
func buildFigure1(t *testing.T) (*program.Program, *profile.Profile, []*program.Block) {
	t.Helper()
	p := program.New("fig1", isa.AppTextBase)
	pr := p.AddProc("f")
	blocks := make([]*program.Block, 8)
	for i := range blocks {
		blocks[i] = p.AddBlock(pr, 4)
	}
	a := func(i int) *program.Block { return blocks[i-1] }
	a(1).Kind = isa.TermCond
	a(1).Taken = a(2).ID
	a(1).Fall = a(5).ID
	a(2).Kind = isa.TermFallThrough
	a(2).Fall = a(3).ID
	a(3).Kind = isa.TermFallThrough
	a(3).Fall = a(4).ID
	a(4).Kind = isa.TermBranch
	a(4).Taken = a(8).ID
	a(5).Kind = isa.TermFallThrough
	a(5).Fall = a(6).ID
	a(6).Kind = isa.TermCond
	a(6).Taken = a(7).ID
	a(6).Fall = a(8).ID
	a(7).Kind = isa.TermFallThrough
	a(7).Fall = a(8).ID
	a(8).Kind = isa.TermRet
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	pf := profile.New("fig1", p)
	counts := []uint64{100, 60, 60, 60, 40, 40, 24, 100}
	for i, c := range counts {
		pf.AddBlock(blocks[i].ID, c)
	}
	pf.AddEdge(a(1).ID, a(2).ID, 60)
	pf.AddEdge(a(1).ID, a(5).ID, 40)
	pf.AddEdge(a(2).ID, a(3).ID, 60)
	pf.AddEdge(a(3).ID, a(4).ID, 60)
	pf.AddEdge(a(4).ID, a(8).ID, 60)
	pf.AddEdge(a(5).ID, a(6).ID, 40)
	pf.AddEdge(a(6).ID, a(7).ID, 24)
	pf.AddEdge(a(6).ID, a(8).ID, 16)
	pf.AddEdge(a(7).ID, a(8).ID, 24)
	return p, pf, blocks
}

func TestChainProcFigure1(t *testing.T) {
	p, pf, blocks := buildFigure1(t)
	chains := core.ChainProc(p, p.Procs[0], pf)

	// The heaviest path A1-A2-A3-A4-A8 must form the entry chain: edges
	// sorted by weight chain 60-weight links first, then A4->A8 (60) claims
	// A8, leaving A6's arms blocked on one side.
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	first := chains[0]
	want := []program.BlockID{blocks[0].ID, blocks[1].ID, blocks[2].ID, blocks[3].ID, blocks[7].ID}
	if len(first) != len(want) {
		t.Fatalf("entry chain = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("entry chain = %v, want %v", first, want)
		}
	}
	// Remaining blocks form the secondary chain(s): A5-A6-A7.
	var rest []program.BlockID
	for _, c := range chains[1:] {
		rest = append(rest, c...)
	}
	if len(rest) != 3 {
		t.Fatalf("rest = %v", rest)
	}
}

func TestChainEntryStaysHead(t *testing.T) {
	// A loop back-edge into the entry must not make the entry a chain tail.
	p := program.New("loop", isa.AppTextBase)
	pr := p.AddProc("l")
	e := p.AddBlock(pr, 2)
	b := p.AddBlock(pr, 2)
	e.Kind = isa.TermCond
	e.Taken = b.ID
	b.Kind = isa.TermCond
	b.Taken = e.ID
	x := p.AddBlock(pr, 1)
	x.Kind = isa.TermRet
	e.Fall = x.ID
	b.Fall = x.ID
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := profile.New("loop", p)
	pf.AddBlock(e.ID, 100)
	pf.AddBlock(b.ID, 99)
	pf.AddBlock(x.ID, 1)
	pf.AddEdge(e.ID, b.ID, 99)
	pf.AddEdge(b.ID, e.ID, 99) // hottest edge, but would demote the entry
	pf.AddEdge(e.ID, x.ID, 1)
	pf.AddEdge(b.ID, x.ID, 1)
	chains := core.ChainProc(p, pr, pf)
	if chains[0][0] != e.ID {
		t.Fatalf("entry chain starts with %d, want %d", chains[0][0], e.ID)
	}
}

func TestChainNoCycles(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(4))
		pf := progtest.RandProfile(r, p, 10, 200)
		for _, pr := range p.Procs {
			chains := core.ChainProc(p, pr, pf)
			seen := make(map[program.BlockID]bool)
			total := 0
			for _, c := range chains {
				for _, b := range c {
					if seen[b] {
						t.Logf("seed %d: block %d in two chains", seed, b)
						return false
					}
					seen[b] = true
					total++
				}
			}
			if total != len(pr.Blocks) {
				t.Logf("seed %d: proc %s chains cover %d of %d blocks", seed, pr.Name, total, len(pr.Blocks))
				return false
			}
			if len(chains) > 0 && chains[0][0] != pr.Entry() {
				t.Logf("seed %d: entry not first", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChainImprovesFallthrough(t *testing.T) {
	// Chaining must not decrease the profile-weighted number of elided
	// transitions relative to source order on the Figure 1 example.
	p, pf, _ := buildFigure1(t)
	weightAdj := func(l *program.Layout) uint64 {
		var w uint64
		for _, b := range p.Blocks {
			if l.Adj[b.ID] != program.NoBlock {
				w += pf.Edge(b.ID, l.Adj[b.ID])
			}
		}
		return w
	}
	base, err := program.BaselineLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.ComboPipeline("chain")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := pl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if weightAdj(opt) < weightAdj(base) {
		t.Fatalf("chaining reduced fall-through weight: %d < %d", weightAdj(opt), weightAdj(base))
	}
}
