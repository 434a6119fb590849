package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"codelayout/internal/core"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// runSpec parses a pipeline spec and runs it.
func runSpec(spec string, p *program.Program, pf *profile.Profile) (*program.Layout, *core.Report, error) {
	pl, err := core.ParsePipeline(spec)
	if err != nil {
		return nil, nil, err
	}
	return pl.Run(p, pf)
}

// TestCombosCoverPaper: the combo table is the one list of hand-built
// layouts — the paper's five pipelines in Figure 7 order, then the four
// extensions; the figure's sixth, "base", is the original binary and no row —
// and a row's spec is the pipeline, not a description of it: it parses,
// prints back as itself, and is what ComboPipeline(name) resolves to. The
// literal rows are the strings every "optimized with:" line, memo key and
// README row was recorded with.
func TestCombosCoverPaper(t *testing.T) {
	want := []core.Combo{
		{Name: "porder", Spec: "split:none,porder:ph,materialize"},
		{Name: "chain", Spec: "chain,split:none,porder:orig,materialize"},
		{Name: "chain+split", Spec: "chain,split:fine,porder:orig,materialize"},
		{Name: "chain+porder", Spec: "chain,split:none,porder:ph,materialize"},
		{Name: "all", Spec: "chain,split:fine,porder:ph,materialize"},
		{Name: "hotcold", Spec: "chain,split:hotcold,porder:ph,materialize"},
		{Name: "cfa", Spec: "chain,split:fine,porder:ph,cfa:65536/16384,materialize"},
		{Name: "ipchain", Spec: "chain,split:none,ipchain,porder:ph,materialize"},
		{Name: "fusion", Spec: "chain,split:none,txfuse,porder:ph,materialize"},
	}
	got := core.Combos()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combo table = %v, want %v", got, want)
	}
	if pl, err := core.ComboPipeline("base"); err == nil {
		t.Errorf("ComboPipeline(\"base\") = %s; base is the original binary, not a pipeline", pl)
	}
	seen := make(map[string]bool)
	for _, c := range got {
		if seen[c.Name] {
			t.Errorf("combo %q listed twice", c.Name)
		}
		seen[c.Name] = true
		pl, err := core.ParsePipeline(c.Spec)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if pl.String() != c.Spec {
			t.Errorf("%s: spec %q prints back as %q", c.Name, c.Spec, pl.String())
		}
		byName, err := core.ComboPipeline(c.Name)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if byName.String() != c.Spec {
			t.Errorf("ComboPipeline(%q) = %q, want the row's %q", c.Name, byName.String(), c.Spec)
		}
	}
	if _, err := core.ComboPipeline("nope"); err == nil {
		t.Fatal("expected error for unknown combo")
	}
}

func TestOptimizeAllCombosValid(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(6))
		pf := progtest.RandProfile(r, p, 15, 250)
		for _, combo := range core.Combos() {
			l, rep, err := runSpec(combo.Spec, p, pf)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			if err := l.Validate(); err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			if rep.Units <= 0 || rep.Chains <= 0 {
				t.Logf("seed %d %s: empty report", seed, combo.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineRejectsForeignProfile: a profile that counts blocks the program
// does not have was gathered on another program; laying out with it is an
// error that says so, through Run and RunFused alike. A profile of fewer
// blocks cannot be told apart and still runs.
func TestPipelineRejectsForeignProfile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := progtest.RandProgram(r, 3)
	p.Name = "small"
	n := p.NumBlocks()
	pl, err := core.ComboPipeline("all")
	if err != nil {
		t.Fatal(err)
	}
	own := progtest.RandProfile(r, p, 10, 200)

	longer := own.Clone()
	longer.BlockCount = append(longer.BlockCount, 0, 7)
	edgeOut := own.Clone()
	edgeOut.AddEdge(2, program.BlockID(n), 5)
	edgeOut.AddEdge(program.BlockID(n+3), 1, 5)
	for _, tc := range []struct {
		pf   *profile.Profile
		want string
	}{
		{longer, fmt.Sprintf(`core: profile "randwalk" counts %d blocks, program "small" has %d: it is a profile of another program`, n+2, n)},
		{edgeOut, fmt.Sprintf(`core: profile "randwalk" counts an edge 2→%d, program "small" has %d blocks: it is a profile of another program`, n, n)},
	} {
		if _, _, err := pl.Run(p, tc.pf); err == nil || err.Error() != tc.want {
			t.Errorf("Run: error %v, want %s", err, tc.want)
		}
		if _, _, err := pl.RunFused(p, tc.pf, nil, nil); err == nil || err.Error() != tc.want {
			t.Errorf("RunFused: error %v, want %s", err, tc.want)
		}
	}

	shorter := own.Clone()
	shorter.BlockCount = shorter.BlockCount[:n-1]
	for k := range shorter.EdgeCount {
		if src, dst := program.SplitEdgeKey(k); int(src) == n-1 || int(dst) == n-1 {
			delete(shorter.EdgeCount, k)
		}
	}
	if _, _, err := pl.Run(p, shorter); err != nil {
		t.Errorf("a profile of fewer blocks: %v", err)
	}
}

func TestOptimizeBaseMatchesSourceOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := progtest.RandProgram(r, 5)
	pf := progtest.RandProfile(r, p, 10, 200)
	l, _, err := runSpec("split:none,porder:orig,materialize", p, pf)
	if err != nil {
		t.Fatal(err)
	}
	want := program.SourceOrder(p)
	for i, id := range l.Order {
		if id != want[i] {
			t.Fatalf("source-order pipeline reordered blocks at %d: %d != %d", i, id, want[i])
		}
	}
}

func TestSplitModesPartitionBlocks(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(5))
		pf := progtest.RandProfile(r, p, 10, 200)
		for _, mode := range []core.SplitMode{core.SplitNone, core.SplitFine, core.SplitHotCold} {
			l, _, err := runSpec("chain,split:"+mode.String(), p, pf)
			if err != nil || l.Validate() != nil {
				t.Logf("seed %d mode %v: %v", seed, mode, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeAllPacksHotCodeFirst(t *testing.T) {
	// With "all", every hot block must be placed before every cold-proc
	// block (hot units first, cold appended).
	r := rand.New(rand.NewSource(3))
	p := progtest.RandProgram(r, 8)
	pf := progtest.RandProfile(r, p, 25, 400)
	l, _, err := runSpec("chain,split:fine,porder:ph", p, pf)
	if err != nil {
		t.Fatal(err)
	}
	var maxHot, minColdProcAddr uint64
	minColdProcAddr = ^uint64(0)
	sawHot, sawCold := false, false
	for _, b := range p.Blocks {
		if pf.Count(b.ID) > 0 {
			sawHot = true
			if l.Addr(b.ID) > maxHot {
				maxHot = l.Addr(b.ID)
			}
		}
	}
	// Blocks of procs with zero executed blocks are fully cold.
	for _, pr := range p.Procs {
		cold := true
		for _, bid := range pr.Blocks {
			if pf.Count(bid) > 0 {
				cold = false
				break
			}
		}
		if cold {
			sawCold = true
			for _, bid := range pr.Blocks {
				if l.Addr(bid) < minColdProcAddr {
					minColdProcAddr = l.Addr(bid)
				}
			}
		}
	}
	if sawHot && sawCold && maxHot > minColdProcAddr {
		t.Fatalf("hot block at %#x after cold proc block at %#x", maxHot, minColdProcAddr)
	}
}

func TestCFAPlanKeepsHotCodeOutOfReservedSets(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	p := progtest.RandProgram(r, 10)
	pf := progtest.RandProfile(r, p, 30, 400)
	const cacheBytes = 4096
	const reservedBytes = 1024
	l, rep, err := runSpec(fmt.Sprintf("chain,split:fine,porder:ph,cfa:%d/%d", cacheBytes, reservedBytes), p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.CFAReservedWords <= 0 {
		t.Fatal("no code placed in reserved area")
	}
	// Every hot block outside the reserved prefix must avoid the reserved
	// sets, unless its unit was itself too large to avoid them.
	reservedEnd := p.TextBase + uint64(reservedBytes)
	violations := 0
	for _, b := range p.Blocks {
		if pf.Count(b.ID) == 0 {
			continue
		}
		addr := l.Addr(b.ID)
		if addr < reservedEnd {
			continue // inside the conflict-free area itself
		}
		if off := addr % cacheBytes; off < reservedBytes {
			violations++
		}
	}
	// Oversized units may overlap; with small random procs none should.
	if violations > 0 {
		t.Fatalf("%d hot blocks map into reserved sets", violations)
	}
}
