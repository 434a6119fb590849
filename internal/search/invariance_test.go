package search_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/db"
	"codelayout/internal/expt"
	"codelayout/internal/program"
	"codelayout/internal/search"
	"codelayout/internal/workload"
)

// blockSeq records an emitter's Collector calls, each block mapped through
// origOf (a fused image's clones back onto the blocks they were cloned from).
type blockSeq struct {
	origOf []program.BlockID
	seq    [][2]program.BlockID
}

func (s *blockSeq) Block(prev, cur program.BlockID) {
	if prev != program.NoBlock {
		prev = s.origOf[prev]
	}
	s.seq = append(s.seq, [2]program.BlockID{prev, s.origOf[cur]})
}

// originals maps every block of img to itself, or — for a block of a fusion
// clone — to the block of the original function at the same position
// (CloneProc copies a procedure's blocks in order).
func originals(t *testing.T, img *codegen.Image) []program.BlockID {
	origOf := make([]program.BlockID, len(img.Prog.Blocks))
	for id := range origOf {
		origOf[id] = program.BlockID(id)
	}
	for _, fn := range img.Fns {
		if fn.CloneOf == "" {
			continue
		}
		orig, ok := img.Fns[fn.CloneOf]
		if !ok || len(orig.Proc.Blocks) != len(fn.Proc.Blocks) {
			t.Fatalf("clone %q does not mirror an original %q", fn.Name, fn.CloneOf)
		}
		for i, id := range fn.Proc.Blocks {
			origOf[id] = orig.Proc.Blocks[i]
		}
	}
	return origOf
}

// appSequence is the appmodel/ordere conformance driver: real transactions of
// wl, inputs from a fixed seed, through one emitter over img under l.
func appSequence(t *testing.T, wl workload.Workload, img *codegen.Image, l *program.Layout) [][2]program.BlockID {
	rec := &blockSeq{origOf: originals(t, img)}
	em := codegen.NewEmitter(img, l, 3)
	em.Sink = func(uint64, int32) {}
	em.Collector = rec
	eng := db.NewEngine(db.Config{BufferPoolPages: 8192})
	inst, err := wl.Load([]*db.Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	ss := []*db.Session{eng.NewSession(1, em)}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 25; i++ {
		inst.RunTxn(ss, inst.GenInput(r, nil))
		if !em.Idle() {
			t.Fatalf("txn %d: emitter not idle after transaction", i)
		}
	}
	return rec.seq
}

// kernSequence walks every auto function of the kernel image from idle.
func kernSequence(t *testing.T, img *codegen.Image, l *program.Layout) [][2]program.BlockID {
	rec := &blockSeq{origOf: originals(t, img)}
	em := codegen.NewEmitter(img, l, 3)
	em.Sink = func(uint64, int32) {}
	em.Collector = rec
	var entries []string
	for name, fn := range img.Fns {
		if fn.Auto && !fn.Proc.Cold {
			entries = append(entries, name)
		}
	}
	sort.Strings(entries)
	for _, name := range entries {
		em.RunAuto(name)
	}
	return rec.seq
}

func sameSequence(t *testing.T, what, spec string, got, want [][2]program.BlockID) {
	t.Helper()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s under %q: block sequence leaves the baseline's at event %d of %d", what, spec, i, len(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s under %q: %d block events, the baseline has %d", what, spec, len(got), len(want))
	}
}

// TestLayoutPreservesBlockSequence is an oracle that needs no second
// implementation (ROADMAP item 15's kind): a layout is a
// semantics-preserving permutation of the program. For pipeline specs
// drawn from Mutate — txfuse among them, whose clones map back through
// CloneOf — the same engine events and the same PRNG seed execute the same
// logical block sequence under the candidate layout as under the baseline;
// only addresses and materialized terminator words differ. Replay from a
// captured block stream (parked in ROADMAP) would rest on exactly this.
func TestLayoutPreservesBlockSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	rng := rand.New(rand.NewSource(23))
	seen := map[string]bool{}
	var specs []string
	fuses := 0
	fusion, err := core.ComboPipeline("fusion")
	if err != nil {
		t.Fatal(err)
	}
	fused, err := search.ParseGenome(fusion.String())
	if err != nil {
		t.Fatal(err)
	}
	// A random walk from the fusing seed, restarted there every few steps:
	// left alone the walk mutates txfuse away and rarely back.
	for g := fused; len(specs) < 56; {
		if rng.Intn(3) == 0 {
			g = fused
		}
		if g = search.Mutate(g, rng); !seen[g.Spec()] {
			seen[g.Spec()] = true
			specs = append(specs, g.Spec())
			if strings.Contains(g.Spec(), "txfuse") {
				fuses++
			}
		}
	}
	t.Logf("%d specs, %d of them fusing", len(specs), fuses)
	if fuses < 10 {
		t.Fatalf("only %d of %d drawn specs clone procedures; the draw no longer covers txfuse", fuses, len(specs))
	}

	var kern *expt.Session
	for _, wl := range []workload.Workload{tinyTPCB(), tinyOrdere()} {
		s, err := expt.NewSession(tinyOptions(wl))
		if err != nil {
			t.Fatal(err)
		}
		kern = s
		base, err := s.Layout("base")
		if err != nil {
			t.Fatal(err)
		}
		want := appSequence(t, wl, s.AppImage(), base)
		for _, spec := range specs {
			l, err := s.Layout(spec)
			if err != nil {
				t.Fatal(err)
			}
			sameSequence(t, wl.Name(), spec, appSequence(t, wl, s.AppImageFor(spec), l), want)
		}
	}

	// The kernel has no engine events: the same specs lay out the kernel
	// program over its own training profile, and every service runs from idle.
	kimg := kern.KernelImage()
	kprof, err := kern.KernProfile()
	if err != nil {
		t.Fatal(err)
	}
	kbase, err := kern.KernLayout("kbase")
	if err != nil {
		t.Fatal(err)
	}
	want := kernSequence(t, kimg, kbase)
	if len(want) == 0 {
		t.Fatal("the kernel walk visited nothing")
	}
	for _, spec := range specs {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := pl.Run(kimg.Prog, kprof.Clone())
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, "kernel", spec, kernSequence(t, kimg, l), want)
	}
}
