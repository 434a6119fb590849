package program_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

func mustMaterialize(t *testing.T, p *program.Program, order []program.BlockID, opts program.MaterializeOptions) *program.Layout {
	t.Helper()
	l, err := program.Materialize(p, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBaselineLayoutDiamond(t *testing.T) {
	p, b := buildDiamond(t)
	l, err := program.BaselineLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Source order: e, t, f, x.
	// e: cond with fall (f) NOT adjacent but taken (t) adjacent -> flip, 1 term word.
	if l.Occ(b[0].ID) != 4+1 {
		t.Fatalf("entry occ = %d", l.Occ(b[0].ID))
	}
	if l.Adj[b[0].ID] != b[1].ID {
		t.Fatalf("entry adj = %d", l.Adj[b[0].ID])
	}
	// t: branch to x, not adjacent (f in between) -> 1 word.
	if l.Occ(b[1].ID) != 3+1 {
		t.Fatalf("t occ = %d", l.Occ(b[1].ID))
	}
	// f: fall to x, adjacent -> elided.
	if l.Occ(b[2].ID) != 5 {
		t.Fatalf("f occ = %d", l.Occ(b[2].ID))
	}
	// x: ret -> 1 word.
	if l.Occ(b[3].ID) != 2+1 {
		t.Fatalf("x occ = %d", l.Occ(b[3].ID))
	}
	if l.TotalWords() != 5+4+5+3 {
		t.Fatalf("total words = %d", l.TotalWords())
	}
}

func TestMaterializeBranchPair(t *testing.T) {
	p, b := buildDiamond(t)
	// Place the conditional's arms both away from it: order e, x, t, f.
	order := []program.BlockID{b[0].ID, b[3].ID, b[1].ID, b[2].ID}
	hot := map[program.BlockID]uint64{b[2].ID: 100, b[1].ID: 1}
	l := mustMaterialize(t, p, order, program.MaterializeOptions{
		FallFirst: func(b *program.Block) bool { return hot[b.Fall] > hot[b.Taken] },
	})
	if l.Occ(b[0].ID) != 4+2 {
		t.Fatalf("branch pair occ = %d", l.Occ(b[0].ID))
	}
	if l.CondFirst[b[0].ID] != b[2].ID {
		t.Fatalf("cond first should favor hot fall arm, got %d", l.CondFirst[b[0].ID])
	}
	// Cheap exit through the first branch costs one terminator word; the
	// other exit falls through the first branch onto the second.
	if w := l.ExecWords(b[0], b[2].ID); w != 4+1 {
		t.Fatalf("cheap exit words = %d", w)
	}
	if w := l.ExecWords(b[0], b[1].ID); w != 4+2 {
		t.Fatalf("expensive exit words = %d", w)
	}
}

func TestMaterializeCallLanding(t *testing.T) {
	p := program.New("c", isa.AppTextBase)
	a := p.AddProc("a")
	callee := p.AddProc("callee")
	ce := p.AddBlock(callee, 2)
	ce.Kind = isa.TermRet
	cb := p.AddBlock(a, 3)
	cont := p.AddBlock(a, 1)
	other := p.AddBlock(a, 1)
	cb.Kind = isa.TermCall
	cb.Callee = callee.ID
	cb.Fall = cont.ID
	cont.Kind = isa.TermRet
	other.Kind = isa.TermRet
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Continuation adjacent: call takes 1 word, no landing.
	l := mustMaterialize(t, p, []program.BlockID{cb.ID, cont.ID, other.ID, ce.ID}, program.MaterializeOptions{})
	if l.Occ(cb.ID) != 3+1 || l.Place[cb.ID].Exit().Landing() {
		t.Fatalf("adjacent continuation: occ=%d landing=%v", l.Occ(cb.ID), l.Place[cb.ID].Exit().Landing())
	}
	if _, _, ok := l.LandingRun(cb.ID); ok {
		t.Fatal("unexpected landing run")
	}

	// Continuation moved away: call needs a landing branch.
	l = mustMaterialize(t, p, []program.BlockID{cb.ID, other.ID, cont.ID, ce.ID}, program.MaterializeOptions{})
	if l.Occ(cb.ID) != 3+2 || !l.Place[cb.ID].Exit().Landing() {
		t.Fatalf("split continuation: occ=%d landing=%v", l.Occ(cb.ID), l.Place[cb.ID].Exit().Landing())
	}
	addr, words, ok := l.LandingRun(cb.ID)
	if !ok || words != 1 {
		t.Fatalf("landing run: ok=%v words=%d", ok, words)
	}
	if want := l.Addr(cb.ID) + uint64(3+1)*isa.WordBytes; addr != want {
		t.Fatalf("landing addr = %#x, want %#x", addr, want)
	}
}

func TestMaterializeAlignmentAndGaps(t *testing.T) {
	p, b := buildDiamond(t)
	order := program.SourceOrder(p)
	l := mustMaterialize(t, p, order, program.MaterializeOptions{
		AlignWords: 4,
		AlignAt:    map[program.BlockID]bool{b[0].ID: true, b[3].ID: true},
		GapBefore:  map[program.BlockID]uint64{b[3].ID: 64},
	})
	if l.Addr(b[0].ID)%16 != 0 {
		t.Fatalf("unit start not aligned: %#x", l.Addr(b[0].ID))
	}
	if l.Addr(b[3].ID)%16 != 0 {
		t.Fatalf("gapped unit start not aligned: %#x", l.Addr(b[3].ID))
	}
	if gap := l.Addr(b[3].ID) - l.End(b[2].ID); gap < 64 {
		t.Fatalf("gap = %d, want >= 64", gap)
	}
	if l.PadWords < 16 {
		t.Fatalf("pad words = %d", l.PadWords)
	}
}

func TestMaterializeRejectsBadOrders(t *testing.T) {
	p, b := buildDiamond(t)
	if _, err := program.Materialize(p, []program.BlockID{b[0].ID}, program.MaterializeOptions{}); err == nil {
		t.Fatal("expected error for short order")
	}
	if _, err := program.Materialize(p, []program.BlockID{b[0].ID, b[0].ID, b[1].ID, b[2].ID}, program.MaterializeOptions{}); err == nil {
		t.Fatal("expected error for duplicate block")
	}
}

func TestExecWordsEliding(t *testing.T) {
	p, b := buildDiamond(t)
	l, err := program.BaselineLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	// f falls through to adjacent x: no terminator word executed.
	if w := l.ExecWords(b[2], b[3].ID); w != 5 {
		t.Fatalf("elided fall exec words = %d", w)
	}
	// t branches to x (not adjacent): branch word executed.
	if w := l.ExecWords(b[1], b[3].ID); w != 3+1 {
		t.Fatalf("branch exec words = %d", w)
	}
	// e conditional with adjacent arm: one word either way.
	if w := l.ExecWords(b[0], b[1].ID); w != 4+1 {
		t.Fatalf("cond exec words = %d", w)
	}
	if w := l.ExecWords(b[0], b[2].ID); w != 4+1 {
		t.Fatalf("cond exec words = %d", w)
	}
	// x returns: ret word executed.
	if w := l.ExecWords(b[3], program.NoBlock); w != 2+1 {
		t.Fatalf("ret exec words = %d", w)
	}
}

// Property: any permutation of any random program materializes into a layout
// that passes validation, covers every block exactly once, and has
// monotonically increasing addresses.
func TestMaterializeRandomPermutationsProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(5))
		order := program.SourceOrder(p)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		l, err := program.Materialize(p, order, program.MaterializeOptions{AlignWords: 4})
		if err != nil {
			t.Logf("seed %d: materialize: %v", seed, err)
			return false
		}
		if err := l.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		// Total size ≥ sum of bodies + one word per block upper bounds.
		var body int64
		for _, b := range p.Blocks {
			body += int64(b.Body)
		}
		total := l.TotalWords()
		if total < body || total > body+2*int64(len(p.Blocks))+l.PadWords {
			t.Logf("seed %d: total words %d outside [%d, %d]", seed, total, body, body+2*int64(len(p.Blocks))+l.PadWords)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExecWords never exceeds occupancy and never undercounts the
// body, for every block and every successor.
func TestExecWordsBoundsProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(4))
		order := program.SourceOrder(p)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		l, err := program.Materialize(p, order, program.MaterializeOptions{})
		if err != nil {
			return false
		}
		ok := true
		for _, b := range p.Blocks {
			p.SuccEdges(b, func(e program.Edge) {
				if e.Kind == program.EdgeCall {
					return
				}
				w := l.ExecWords(b, e.Dst)
				if w < b.Body || w > l.Occ(b.ID) {
					t.Logf("seed %d: block %d exec %d outside [%d,%d]", seed, b.ID, w, b.Body, l.Occ(b.ID))
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
