package codegen_test

import (
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/trace"
)

// buildTestImage: an engine fn with a branch, a loop, a call to another
// engine fn, and calls into an auto helper.
func buildTestImage(t *testing.T) *codegen.Image {
	t.Helper()
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "t",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "helper", Auto: true, Body: []codegen.Frag{
				codegen.Seq(4),
				codegen.AutoIf{Prob: 0.5, Then: []codegen.Frag{codegen.Seq(3)}},
				codegen.Seq(2),
			}},
			{Name: "inner", Body: []codegen.Frag{
				codegen.Seq(3),
				codegen.If{Site: "inner_cond", Then: []codegen.Frag{codegen.Seq(5)}, Else: []codegen.Frag{codegen.Seq(2)}},
				codegen.Call{Fn: "helper"},
				codegen.Seq(1),
			}},
			{Name: "outer", Body: []codegen.Frag{
				codegen.Seq(2),
				codegen.Loop{Site: "outer_loop", Head: 2, Body: []codegen.Frag{
					codegen.Call{Fn: "inner"},
					codegen.Seq(1),
				}},
				codegen.Switch{Site: "outer_sw", Cases: [][]codegen.Frag{
					{codegen.Seq(2)}, {codegen.Seq(4)}, {codegen.Seq(6)},
				}},
				codegen.Seq(3),
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// driveScript runs a fixed event script against the emitter.
func driveScript(e *codegen.Emitter, iters int, takeThen bool, swCase int) {
	e.Enter("outer")
	for i := 0; i < iters; i++ {
		e.Branch("outer_loop", true)
		e.Enter("inner")
		e.Branch("inner_cond", takeThen)
		e.Leave("inner")
	}
	e.Branch("outer_loop", false)
	e.Case("outer_sw", swCase)
	e.Leave("outer")
}

func TestEmitterRunsScript(t *testing.T) {
	img := buildTestImage(t)
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	e := codegen.NewEmitter(img, l, 1)
	var runs []trace.FetchRun
	e.Sink = func(addr uint64, words int32) {
		runs = append(runs, trace.FetchRun{Addr: addr, Words: words})
	}
	driveScript(e, 3, true, 1)
	if !e.Idle() {
		t.Fatal("emitter not idle after script")
	}
	if len(runs) == 0 || e.Instructions == 0 {
		t.Fatal("no instructions emitted")
	}
	// Every run must lie inside the text segment.
	end := l.Addr(l.Order[len(l.Order)-1]) + uint64(l.Occ(l.Order[len(l.Order)-1]))*isa.WordBytes
	for _, r := range runs {
		if r.Addr < img.Prog.TextBase || r.End() > end {
			t.Fatalf("run %#x+%d outside text", r.Addr, r.Words)
		}
	}
}

// TestEmitterLayoutInvariance is the central correctness property of the
// whole reproduction: the same engine events over different layouts must
// execute the same logical block sequence (identical Pixie profiles), while
// addresses differ.
func TestEmitterLayoutInvariance(t *testing.T) {
	img := buildTestImage(t)
	base, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// Gather a profile under the baseline to feed the optimizer.
	px1 := profile.NewPixie(img.Prog, "p1")
	e1 := codegen.NewEmitter(img, base, 9)
	e1.Collector = px1
	driveScript(e1, 4, false, 2)

	pl, err := core.ComboPipeline("all")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := pl.Run(img.Prog, px1.Profile())
	if err != nil {
		t.Fatal(err)
	}

	// Same script + same PRNG seed on both layouts.
	for _, seed := range []int64{9, 77} {
		pa := profile.NewPixie(img.Prog, "a")
		ea := codegen.NewEmitter(img, base, seed)
		ea.Collector = pa
		driveScript(ea, 4, false, 2)

		pb := profile.NewPixie(img.Prog, "b")
		eb := codegen.NewEmitter(img, opt, seed)
		eb.Collector = pb
		driveScript(eb, 4, false, 2)

		fa, fb := pa.Profile(), pb.Profile()
		for b := range fa.BlockCount {
			if fa.BlockCount[b] != fb.BlockCount[b] {
				t.Fatalf("seed %d: block %d count %d != %d under optimized layout",
					seed, b, fa.BlockCount[b], fb.BlockCount[b])
			}
		}
		if len(fa.EdgeCount) != len(fb.EdgeCount) {
			t.Fatalf("seed %d: edge sets differ", seed)
		}
		for k, n := range fa.EdgeCount {
			if fb.EdgeCount[k] != n {
				t.Fatalf("seed %d: edge %d count differs", seed, k)
			}
		}
	}
}

func TestEmitterPanicsOnModelDrift(t *testing.T) {
	img := buildTestImage(t)
	l, _ := program.BaselineLayout(img.Prog)
	cases := []struct {
		name  string
		drive func(e *codegen.Emitter)
	}{
		{"wrong site", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("inner_cond", true) // model is at outer_loop
		}},
		{"wrong callee", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", true)
			e.Enter("outer") // model expects inner
		}},
		{"early leave", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Leave("outer") // pending loop decision
		}},
		{"leave wrong frame", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", true)
			e.Enter("inner")
			e.Leave("outer")
		}},
		{"case out of range", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", false)
			e.Case("outer_sw", 9)
		}},
		{"unknown fn", func(e *codegen.Emitter) { e.Enter("nope") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := codegen.NewEmitter(img, l, 1)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.drive(e)
		})
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec codegen.ImageSpec
	}{
		{"dup fn", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
		}}},
		{"unknown callee", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Body: []codegen.Frag{codegen.Call{Fn: "zzz"}}},
		}}},
		{"auto fn with site", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.If{Site: "s", Then: []codegen.Frag{codegen.Seq(1)}}}},
		}}},
		{"auto calls engine", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "eng", Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Call{Fn: "eng"}}},
		}}},
		{"bad autoloop prob", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.AutoLoop{Prob: 1.5}}},
		}}},
		{"empty autopick", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.AutoPick{}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.TextBase = isa.AppTextBase
			if _, err := codegen.Build(tc.spec); err == nil {
				t.Fatal("expected build error")
			}
		})
	}
}

func TestLibraryLinksLayersModelsAndCold(t *testing.T) {
	lib := codegen.NewLibrary(5, []codegen.LibConfig{
		{Prefix: "leaf", N: 20, MeanWords: 50},
		{Prefix: "top", N: 10, MeanWords: 40, CallsPerFn: 2, PickWidth: 4, Pools: []string{"leaf"}},
	})
	models := []codegen.FnSpec{{Name: "entry", Auto: true, Body: []codegen.Frag{
		codegen.Seq(3), lib.ErrPath(), lib.Pick("top", 4), codegen.Seq(2),
	}}}
	img, err := lib.Link("lib", isa.AppTextBase, models, "cold", 10_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"entry", "leaf_19", "top_9", "cold_0"} {
		if img.Fns[name] == nil {
			t.Fatalf("image lacks %s", name)
		}
	}
	st := img.Prog.ComputeStats()
	if st.ColdProcs == 0 {
		t.Fatal("no cold procs")
	}
	// Cold code follows each module, not the whole hot image.
	firstCold, lastHot := -1, -1
	for i, pr := range img.Prog.Procs {
		if pr.Cold && firstCold < 0 {
			firstCold = i
		}
		if !pr.Cold {
			lastHot = i
		}
	}
	if firstCold > lastHot {
		t.Fatalf("cold code starts at proc %d, after the last hot proc %d", firstCold, lastHot)
	}
	// Cold code should be close to the requested amount.
	coldWords := st.BodyWords - st.HotWords
	if coldWords < 9_000 || coldWords > 13_000 {
		t.Fatalf("cold words = %d", coldWords)
	}
	// Auto walk the model and a top function to completion repeatedly.
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	e := codegen.NewEmitter(img, l, 3)
	e.Sink = func(uint64, int32) {}
	for i := 0; i < 50; i++ {
		e.RunAuto("entry")
		e.RunAuto("top_3")
	}
	if !e.Idle() {
		t.Fatal("walker stuck")
	}
	if e.Instructions == 0 {
		t.Fatal("no instructions")
	}
}

func TestAutoPickRespectsWeights(t *testing.T) {
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "w",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "rare", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "hot", Auto: true, Body: []codegen.Frag{codegen.Seq(2)}},
			{Name: "top", Auto: true, Body: []codegen.Frag{
				codegen.AutoPick{Fns: []string{"rare", "hot"}, Weights: []uint32{1, 99}},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := program.BaselineLayout(img.Prog)
	e := codegen.NewEmitter(img, l, 11)
	e.Sink = func(uint64, int32) {}
	px := profile.NewPixie(img.Prog, "w")
	e.Collector = px
	for i := 0; i < 2000; i++ {
		e.RunAuto("top")
	}
	rareEntry := img.Prog.FindProc("rare").Entry()
	hotEntry := img.Prog.FindProc("hot").Entry()
	pf := px.Profile()
	rareN := pf.Count(rareEntry)
	hotN := pf.Count(hotEntry)
	if rareN+hotN != 2000 {
		t.Fatalf("picks = %d", rareN+hotN)
	}
	if rareN > 100 || hotN < 1900 {
		t.Fatalf("weights ignored: rare=%d hot=%d", rareN, hotN)
	}
}

// TestWarmedWalkDoesNotAllocate pins the walk at zero allocations per call
// once the frame stack has grown: every machine run is this loop, millions of
// times, and a map or a per-run record sneaking back in shows up here first.
func TestWarmedWalkDoesNotAllocate(t *testing.T) {
	img := buildTestImage(t)
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	e := codegen.NewEmitter(img, l, 1)
	var words int64
	e.Sink = func(_ uint64, w int32) { words += int64(w) }
	cycles := map[string]func(){
		"RunAuto":            func() { e.RunAuto("helper") },
		"Enter/Branch/Leave": func() { driveScript(e, 3, true, 1) },
	}
	for name, cycle := range cycles {
		cycle() // warm: the stack reaches its depth
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: %v allocations per cycle on a warmed emitter, want 0", name, n)
		}
	}
	if words == 0 {
		t.Fatal("the cycles fetched nothing")
	}
}
