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

// testCloner implements core.ProcCloner over a bare program, the way
// codegen's specialized images do, and records every block it adds so the
// coverage property can be stated exactly: layout blocks = input blocks
// plus declared clone blocks, nothing else.
type testCloner struct {
	p      *program.Program
	clones int
	blocks []program.BlockID
}

func (c *testCloner) CloneProc(id program.ProcID, tag string) (program.ProcID, error) {
	orig := c.p.Proc(id)
	clone := c.p.AddProc(orig.Name + "@" + tag)
	remap := make(map[program.BlockID]program.BlockID, len(orig.Blocks))
	for _, ob := range orig.Blocks {
		b := c.p.Block(ob)
		nb := c.p.AddBlock(clone, int(b.Body))
		nb.Kind, nb.Fall, nb.Taken, nb.Callee = b.Kind, b.Fall, b.Taken, b.Callee
		nb.Targets = append([]program.BlockID(nil), b.Targets...)
		remap[ob] = nb.ID
		c.blocks = append(c.blocks, nb.ID)
	}
	for _, ob := range orig.Blocks {
		nb := c.p.Block(remap[ob])
		if t, ok := remap[nb.Fall]; ok {
			nb.Fall = t
		}
		if t, ok := remap[nb.Taken]; ok {
			nb.Taken = t
		}
		for i, tg := range nb.Targets {
			if t, ok := remap[tg]; ok {
				nb.Targets[i] = t
			}
		}
	}
	c.clones++
	return clone.ID, nil
}

// assertCovers checks the core output property every pass must preserve:
// the layout places every block of the (possibly clone-grown) program
// exactly once.
func assertCovers(t *testing.T, label string, l *program.Layout, p *program.Program) {
	t.Helper()
	if len(l.Order) != len(p.Blocks) {
		t.Fatalf("%s: layout places %d blocks, program has %d", label, len(l.Order), len(p.Blocks))
	}
	seen := make(map[program.BlockID]bool, len(l.Order))
	for _, id := range l.Order {
		if id < 0 || int(id) >= len(p.Blocks) {
			t.Fatalf("%s: layout places unknown block %d", label, id)
		}
		if seen[id] {
			t.Fatalf("%s: block %d placed twice", label, id)
		}
		seen[id] = true
	}
}

func blockCountSum(pf *profile.Profile) uint64 {
	var s uint64
	for _, n := range pf.BlockCount {
		s += n
	}
	return s
}

// TestPassCoverageProperty runs every registered combo plus the fusion
// pipeline over random programs and checks that each output layout covers
// exactly the input block set — and, when txfuse clones through a real
// cloner, exactly the input set plus the declared clone blocks, with the
// report's clone tallies matching what the cloner actually did and the
// profile's total block count conserved across the transfer.
func TestPassCoverageProperty(t *testing.T) {
	var specs []string
	for _, c := range core.Combos() {
		specs = append(specs, c.Name)
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 8)
		pf := progtest.RandProfile(r, p, 20, 300)
		inputBlocks := len(p.Blocks)
		for _, name := range specs {
			pl, err := core.ComboPipeline(name)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := pl.Run(p, pf)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			assertCovers(t, name, l, p)
			if err := l.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if len(p.Blocks) != inputBlocks {
				t.Fatalf("seed %d %s: pipeline without a cloner grew the program", seed, name)
			}
		}

		// The cloning run mutates program and profile, so it goes last: a
		// wide-open budget over derived roots, through a real cloner. Under
		// a splitting pass a cloned procedure is several units, of which only
		// the entry's joins the fused unit; the layout must still place the
		// rest of the clone.
		cl := &testCloner{p: p}
		split := []string{"none", "fine", "hotcold"}[seed%3]
		pl, err := core.ParsePipeline("chain,split:" + split + ",txfuse:100,porder:ph,materialize")
		if err != nil {
			t.Fatal(err)
		}
		countBefore := blockCountSum(pf)
		l, rep, err := pl.RunChained(p, pf, nil, nil, cl)
		if err != nil {
			t.Fatalf("seed %d txfuse:100: %v", seed, err)
		}
		if got := len(p.Blocks); got != inputBlocks+len(cl.blocks) {
			t.Fatalf("seed %d: program has %d blocks, want %d input + %d cloned",
				seed, got, inputBlocks, len(cl.blocks))
		}
		assertCovers(t, "txfuse:100", l, p)
		if err := l.Validate(); err != nil {
			t.Fatalf("seed %d txfuse:100: %v", seed, err)
		}
		if rep.ClonedProcs != cl.clones {
			t.Fatalf("seed %d: report says %d cloned procs, cloner made %d", seed, rep.ClonedProcs, cl.clones)
		}
		if (rep.CloneWords > 0) != (cl.clones > 0) {
			t.Fatalf("seed %d: clone words %d inconsistent with %d clones", seed, rep.CloneWords, cl.clones)
		}
		if got := blockCountSum(pf); got != countBefore {
			t.Fatalf("seed %d: profile transfer changed total block count %d -> %d", seed, countBefore, got)
		}
	}
}

// fuseFixture builds the minimal sharing shape: two transaction roots both
// calling one shared procedure, the first twice as hot as the second.
func fuseFixture() (*program.Program, *profile.Profile, []core.KindRoot) {
	p := program.New("fusetest", isa.AppTextBase)
	rootA := p.AddProc("txn_a")
	a0 := p.AddBlock(rootA, 4)
	a1 := p.AddBlock(rootA, 2)
	rootB := p.AddProc("txn_b")
	b0 := p.AddBlock(rootB, 4)
	b1 := p.AddBlock(rootB, 2)
	shared := p.AddProc("engine_shared")
	s0 := p.AddBlock(shared, 6)
	a0.Kind, a0.Callee, a0.Fall = isa.TermCall, shared.ID, a1.ID
	a1.Kind = isa.TermRet
	b0.Kind, b0.Callee, b0.Fall = isa.TermCall, shared.ID, b1.ID
	b1.Kind = isa.TermRet
	s0.Kind = isa.TermRet

	pf := profile.New("fusetest", p)
	pf.AddBlock(a0.ID, 100)
	pf.AddBlock(a1.ID, 100)
	pf.AddEdge(a0.ID, s0.ID, 100)
	pf.AddEdge(a0.ID, a1.ID, 100)
	pf.AddBlock(b0.ID, 60)
	pf.AddBlock(b1.ID, 60)
	pf.AddEdge(b0.ID, s0.ID, 60)
	pf.AddEdge(b0.ID, b1.ID, 60)
	pf.AddBlock(s0.ID, 160)

	roots := []core.KindRoot{
		{Kind: "ka", Proc: rootA.ID},
		{Kind: "kb", Proc: rootB.ID},
	}
	return p, pf, roots
}

// TestTxFuseSharedCodeDedup pins the weighted-assignment semantics on the
// minimal fixture: the heavier kind keeps the shared original in its fused
// unit, the lighter kind gets a clone (under a wide budget) and its call is
// rewired onto it, with the shared procedure's counts split by claim.
func TestTxFuseSharedCodeDedup(t *testing.T) {
	p, pf, roots := fuseFixture()
	sharedID := p.FindProc("engine_shared").ID
	sharedEntry := p.Entry(sharedID)
	inputBlocks := len(p.Blocks)

	cl := &testCloner{p: p}
	pl, err := core.ParsePipeline("chain,split:none,txfuse:100,porder:ph,materialize")
	if err != nil {
		t.Fatal(err)
	}
	l, rep, err := pl.RunChained(p, pf, nil, roots, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FusedKinds != 2 {
		t.Fatalf("fused %d kinds, want 2", rep.FusedKinds)
	}
	if cl.clones != 1 || rep.ClonedProcs != 1 {
		t.Fatalf("cloner made %d clones, report says %d, want 1 each", cl.clones, rep.ClonedProcs)
	}
	if rep.CloneWords == 0 {
		t.Fatal("clone words not accounted")
	}
	assertCovers(t, "txfuse:100", l, p)
	if got := len(p.Blocks); got != inputBlocks+1 {
		t.Fatalf("program has %d blocks, want %d + 1 clone block", got, inputBlocks)
	}
	// The lighter kind's call was rewired onto the clone; the heavier kind
	// keeps calling the original.
	b0 := p.Block(p.Entry(p.FindProc("txn_b").ID))
	if b0.Callee == sharedID {
		t.Fatal("lighter kind still calls the shared original")
	}
	cloneProc := p.Proc(b0.Callee)
	if cloneProc.Name != "engine_shared@kb" {
		t.Fatalf("clone named %q, want engine_shared@kb", cloneProc.Name)
	}
	a0 := p.Block(p.Entry(p.FindProc("txn_a").ID))
	if a0.Callee != sharedID {
		t.Fatal("heavier kind no longer calls the shared original")
	}
	// Claim-proportional profile transfer conserves the shared counts.
	orig, clone := pf.Count(sharedEntry), pf.Count(cloneProc.Entry())
	if orig+clone != 160 {
		t.Fatalf("shared counts not conserved: %d + %d != 160", orig, clone)
	}
	if clone != 60 {
		t.Fatalf("clone carries %d executions, want the 60-claim share", clone)
	}
}

// TestTxFuseBudgetCutsCloning pins the growth knob: on the same fixture the
// default 10%%-of-hot-words budget cannot afford the clone, so the shared
// procedure is only absorbed by its heaviest claimant and the program does
// not grow.
func TestTxFuseBudgetCutsCloning(t *testing.T) {
	p, pf, roots := fuseFixture()
	inputBlocks := len(p.Blocks)
	cl := &testCloner{p: p}
	pl, err := core.ComboPipeline("fusion")
	if err != nil {
		t.Fatal(err)
	}
	l, rep, err := pl.RunChained(p, pf, nil, roots, cl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FusedKinds != 2 {
		t.Fatalf("fused %d kinds, want 2", rep.FusedKinds)
	}
	if cl.clones != 0 || rep.ClonedProcs != 0 || rep.CloneWords != 0 {
		t.Fatalf("default budget cloned anyway: %d clones, report %d/%d words",
			cl.clones, rep.ClonedProcs, rep.CloneWords)
	}
	if len(p.Blocks) != inputBlocks {
		t.Fatal("program grew without clones")
	}
	assertCovers(t, "txfuse", l, p)
}

// TestPassDocsListing pins the deterministic pass listing: sorted by name,
// every registered pass present, txfuse documented.
func TestPassDocsListing(t *testing.T) {
	docs := core.PassDocs()
	if len(docs) == 0 {
		t.Fatal("no pass docs")
	}
	byName := make(map[string]string, len(docs))
	for i, d := range docs {
		if i > 0 && docs[i-1].Name >= d.Name {
			t.Fatalf("pass docs not sorted: %q before %q", docs[i-1].Name, d.Name)
		}
		if d.Doc == "" {
			t.Fatalf("pass %q has an empty description", d.Name)
		}
		byName[d.Name] = d.Doc
	}
	for _, want := range []string{"chain", "split", "porder", "cfa", "align", "materialize", "ipchain", "txfuse"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("pass %q missing from PassDocs", want)
		}
	}
	if len(core.RegisteredPasses()) < len(docs) {
		t.Fatal("RegisteredPasses shorter than PassDocs")
	}
}
