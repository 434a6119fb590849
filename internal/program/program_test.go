package program_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
	"codelayout/internal/tpcb"
)

// buildDiamond creates one procedure shaped like:
//
//	e(4) --cond--> t(3) --br--> x(2) ret
//	          \--> f(5) --fall-> x
func buildDiamond(t *testing.T) (*program.Program, [4]*program.Block) {
	t.Helper()
	p := program.New("diamond", isa.AppTextBase)
	pr := p.AddProc("d")
	e := p.AddBlock(pr, 4)
	tb := p.AddBlock(pr, 3)
	fb := p.AddBlock(pr, 5)
	x := p.AddBlock(pr, 2)
	e.Kind = isa.TermCond
	e.Taken = tb.ID
	e.Fall = fb.ID
	tb.Kind = isa.TermBranch
	tb.Taken = x.ID
	fb.Kind = isa.TermFallThrough
	fb.Fall = x.ID
	x.Kind = isa.TermRet
	if err := p.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return p, [4]*program.Block{e, tb, fb, x}
}

func TestValidateAcceptsDiamond(t *testing.T) {
	buildDiamond(t)
}

func TestValidateRejectsBadReferences(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*program.Program, [4]*program.Block)
	}{
		{"cond same arms", func(p *program.Program, b [4]*program.Block) { b[0].Fall = b[0].Taken }},
		{"fall out of range", func(p *program.Program, b [4]*program.Block) { b[2].Fall = 99 }},
		{"fall noblock", func(p *program.Program, b [4]*program.Block) { b[2].Fall = program.NoBlock }},
		{"bad callee", func(p *program.Program, b [4]*program.Block) {
			b[2].Kind = isa.TermCall
			b[2].Callee = 7
		}},
		{"indirect no targets", func(p *program.Program, b [4]*program.Block) {
			b[2].Kind = isa.TermIndirect
			b[2].Targets = nil
		}},
		{"negative body", func(p *program.Program, b [4]*program.Block) { b[1].Body = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, blocks := buildDiamond(t)
			tc.break_(p, blocks)
			if err := p.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestValidateRejectsCrossProcContinuation(t *testing.T) {
	p := program.New("x", isa.AppTextBase)
	a := p.AddProc("a")
	b := p.AddProc("b")
	ab := p.AddBlock(a, 1)
	bb := p.AddBlock(b, 1)
	bb.Kind = isa.TermRet
	ab.Kind = isa.TermCall
	ab.Callee = b.ID
	ab.Fall = bb.ID // continuation in the wrong procedure
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error for cross-proc continuation")
	}
}

func TestComputeStats(t *testing.T) {
	p, _ := buildDiamond(t)
	cold := p.AddProc("cold")
	cold.Cold = true
	cb := p.AddBlock(cold, 100)
	cb.Kind = isa.TermRet
	s := p.ComputeStats()
	if s.Procs != 2 || s.ColdProcs != 1 {
		t.Fatalf("procs=%d cold=%d", s.Procs, s.ColdProcs)
	}
	if s.Blocks != 5 || s.HotBlocks != 4 {
		t.Fatalf("blocks=%d hot=%d", s.Blocks, s.HotBlocks)
	}
	if s.BodyWords != 114 || s.HotWords != 14 {
		t.Fatalf("body=%d hot=%d", s.BodyWords, s.HotWords)
	}
}

func TestSuccEdges(t *testing.T) {
	p, b := buildDiamond(t)
	var kinds []program.EdgeKind
	p.SuccEdges(b[0], func(e program.Edge) { kinds = append(kinds, e.Kind) })
	if len(kinds) != 2 || kinds[0] != program.EdgeTaken || kinds[1] != program.EdgeCondFall {
		t.Fatalf("cond edges = %v", kinds)
	}
	var n int
	p.SuccEdges(b[3], func(program.Edge) { n++ })
	if n != 0 {
		t.Fatalf("ret should have no successors, got %d", n)
	}
}

func TestCallEdges(t *testing.T) {
	p := program.New("c", isa.AppTextBase)
	a := p.AddProc("a")
	callee := p.AddProc("callee")
	ce := p.AddBlock(callee, 2)
	ce.Kind = isa.TermRet
	cb := p.AddBlock(a, 1)
	cont := p.AddBlock(a, 1)
	cont.Kind = isa.TermRet
	cb.Kind = isa.TermCall
	cb.Callee = callee.ID
	cb.Fall = cont.ID
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var edges []program.Edge
	p.SuccEdges(cb, func(e program.Edge) { edges = append(edges, e) })
	if len(edges) != 2 {
		t.Fatalf("call edges = %v", edges)
	}
	if edges[0].Kind != program.EdgeCall || edges[0].Dst != ce.ID {
		t.Fatalf("call edge = %+v", edges[0])
	}
	if edges[1].Kind != program.EdgeCont || edges[1].Dst != cont.ID {
		t.Fatalf("cont edge = %+v", edges[1])
	}
	// FlowEdges must exclude the call edge but keep the continuation.
	var flow []program.Edge
	p.FlowEdges(cb, func(e program.Edge) { flow = append(flow, e) })
	if len(flow) != 1 || flow[0].Kind != program.EdgeCont {
		t.Fatalf("flow edges = %v", flow)
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	for _, pair := range [][2]program.BlockID{{0, 0}, {1, 2}, {1 << 20, 3}, {7, 1 << 24}} {
		k := program.EdgeKey(pair[0], pair[1])
		s, d := program.SplitEdgeKey(k)
		if s != pair[0] || d != pair[1] {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", pair[0], pair[1], s, d)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	p := progtest.RandProgram(r, 6)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := program.ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumBlocks() != p.NumBlocks() || len(q.Procs) != len(p.Procs) {
		t.Fatalf("roundtrip size mismatch: %d/%d blocks, %d/%d procs",
			q.NumBlocks(), p.NumBlocks(), len(q.Procs), len(p.Procs))
	}
	for i, b := range p.Blocks {
		qb := q.Blocks[i]
		if qb.Kind != b.Kind || qb.Body != b.Body || qb.Fall != b.Fall || qb.Taken != b.Taken {
			t.Fatalf("block %d mismatch after roundtrip", i)
		}
	}
}

// FuzzReadProgram: any bytes handed to ReadProgram are an error or a program
// that validates, lays out in source order, and re-encodes to bytes that
// read back to the same program and encode again to the same bytes — never a
// panic. The seeds are an application image of the quick preset's shape (what
// oltpgen writes, scaled down), a truncated copy, and a small random program
// for the mutator to work on.
func FuzzReadProgram(f *testing.F) {
	img, err := appmodel.Build(appmodel.Config{Seed: 7, LibScale: 0.4, ColdWords: 900_000, Workload: tpcb.New().QuickScale()})
	if err != nil {
		f.Fatal(err)
	}
	var app, small bytes.Buffer
	if err := img.Prog.Encode(&app); err != nil {
		f.Fatal(err)
	}
	if err := progtest.RandProgram(rand.New(rand.NewSource(5)), 4).Encode(&small); err != nil {
		f.Fatal(err)
	}
	f.Add(app.Bytes())
	f.Add(app.Bytes()[:app.Len()/2])
	f.Add(small.Bytes())
	// Hand-made programs whose ids disagree with their positions.
	for _, broken := range []func(*program.Program){
		func(p *program.Program) { p.Procs[0].ID = 9 },
		func(p *program.Program) { p.Blocks[0].ID = 9 },
		func(p *program.Program) { p.Blocks[0].Kind, p.Blocks[0].Callee, p.Blocks[0].Fall = isa.TermCall, -2, 1 },
	} {
		p, _ := buildDiamond(&testing.T{})
		broken(p)
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := program.ReadProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("a read program does not validate: %v", err)
		}
		if l, err := program.BaselineLayout(p); err == nil {
			if err := l.Validate(); err != nil {
				t.Fatalf("the source-order layout of a read program does not validate: %v", err)
			}
		}
		var first, second bytes.Buffer
		if err := p.Encode(&first); err != nil {
			t.Fatal(err)
		}
		q, err := program.ReadProgram(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a read program does not read back: %v", err)
		}
		if err := q.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) || !reflect.DeepEqual(p, q) {
			t.Fatal("program changed across Encode → ReadProgram")
		}
	})
}

// TestCloneIsDeepAndGrowsAlone: a clone encodes to the same bytes as its
// source, and growing it — new blocks in an old procedure, retargeted
// successors — leaves the source (and the clone's other procedures, which
// share a slab with the grown one) untouched.
func TestCloneIsDeepAndGrowsAlone(t *testing.T) {
	p := progtest.RandProgram(rand.New(rand.NewSource(7)), 6)
	encode := func(p *program.Program) string {
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := encode(p)
	q := p.Clone()
	if encode(q) != before {
		t.Fatal("clone differs from its source")
	}
	next := append([]program.BlockID(nil), q.Procs[1].Blocks...)
	nb := q.AddBlock(q.Procs[0], 3)
	nb.Kind = isa.TermRet
	for _, b := range q.Blocks {
		for i := range b.Targets {
			b.Targets[i] = nb.ID
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if encode(p) != before {
		t.Fatal("growing the clone changed the source")
	}
	for i, id := range q.Procs[1].Blocks {
		if id != next[i] {
			t.Fatalf("appending to procedure 0 overwrote procedure 1's block list: %v, was %v", q.Procs[1].Blocks, next)
		}
	}
}

func TestPredsCountsIncomingEdges(t *testing.T) {
	p, b := buildDiamond(t)
	preds := p.Preds()
	if preds[b[0].ID] != 0 {
		t.Fatalf("entry preds = %d", preds[b[0].ID])
	}
	if preds[b[3].ID] != 2 {
		t.Fatalf("join preds = %d", preds[b[3].ID])
	}
}
