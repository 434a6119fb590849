package core_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

func TestUnknownPassListsRegistry(t *testing.T) {
	_, err := core.ParsePipeline("chain,bogus,porder:ph")
	if err == nil {
		t.Fatal("expected error for unknown pass")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown pass "bogus"`) {
		t.Fatalf("error does not name the pass: %v", err)
	}
	for _, want := range []string{"chain", "split", "porder", "cfa", "align", "materialize", "ipchain"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error does not list registered pass %q: %v", want, err)
		}
	}
}

// TestUnknownPassTypedError pins the error's type: callers (the search
// engine's genome validation, spike) match it with errors.As and read the
// registry listing off the Valid field.
func TestUnknownPassTypedError(t *testing.T) {
	_, err := core.NewPass("warp9:x")
	if err == nil {
		t.Fatal("expected error for unknown pass")
	}
	var upe *core.UnknownPassError
	if !errors.As(err, &upe) {
		t.Fatalf("error %T is not *core.UnknownPassError: %v", err, err)
	}
	if upe.Pass != "warp9" {
		t.Fatalf("Pass = %q, want the base name before the argument", upe.Pass)
	}
	if !reflect.DeepEqual(upe.Valid, core.RegisteredPasses()) {
		t.Fatalf("Valid = %v, want the full registry %v", upe.Valid, core.RegisteredPasses())
	}
}

// TestParameterizedThresholds checks the new pass parameters actually bite:
// a high hotcold@N threshold marks fewer units hot, and a high ipchain:N
// merge threshold leaves more units unmerged than the classic
// any-executed-edge merge.
func TestParameterizedThresholds(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p := progtest.RandProgram(r, 24)
	pf := progtest.RandProfile(r, p, 40, 300)
	run := func(spec string) *core.Report {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		_, rep, err := pl.Run(p, pf)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return rep
	}
	chains := make(map[program.ProcID][]core.Chain, len(p.Procs))
	for _, pr := range p.Procs {
		chains[pr.ID] = core.ChainProc(p, pr, pf)
	}
	hotSide := func(hotMin uint64) int {
		units := core.BuildUnitsHot(p, pf, chains, core.SplitHotCold, hotMin)
		n := 0
		for _, u := range units {
			for i, b := range u.Blocks {
				// Each hot/cold half must be pure under the threshold.
				if (pf.Count(b) >= hotMin) != (pf.Count(u.Blocks[0]) >= hotMin) {
					t.Fatalf("hotcold@%d unit mixes hot and cold blocks (block %d of %v)", hotMin, i, u.Blocks)
				}
			}
			if len(u.Blocks) > 0 && pf.Count(u.Blocks[0]) >= hotMin {
				n += len(u.Blocks)
			}
		}
		return n
	}
	var maxCount uint64
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if c := pf.Count(b); c > maxCount {
				maxCount = c
			}
		}
	}
	if classic, none := hotSide(1), hotSide(maxCount+1); none != 0 || classic == 0 {
		t.Errorf("hotcold threshold does not bite: %d hot blocks at @1, %d at @max+1", classic, none)
	}
	hotSide(maxCount / 2) // purity check at a mid threshold

	li := run("chain,split:none,ipchain,porder:ph,materialize")
	ti := run("chain,split:none,ipchain:1000000,porder:ph,materialize")
	if ti.Units <= li.Units {
		t.Errorf("ipchain:1000000 leaves %d units, want more than ipchain's %d (fewer merges)",
			ti.Units, li.Units)
	}
}

func TestParsePipelineRoundTrip(t *testing.T) {
	canonical := []string{
		"split:none,porder:orig,materialize",
		"chain,split:fine,porder:ph,materialize",
		"chain,split:hotcold,porder:ph,align:8,materialize",
		"chain,split:hotcold@4,porder:ph,materialize",
		"chain,split:fine,porder:ph,cfa:4096/1024,materialize",
		"chain,split:none,ipchain:8,porder:ph,materialize",
		"chain,split:none,txfuse:15,porder:ph,materialize",
		"chain,split:none,ipchain,porder:ph,materialize",
	}
	for _, spec := range canonical {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := pl.String(); got != spec {
			t.Fatalf("round trip %q -> %q", spec, got)
		}
	}
	// Terse specs normalize to a canonical form that re-parses to itself.
	terse := map[string]string{
		"chain,porder":        "chain,porder:ph",
		"split":               "split:none",
		"chain , split:fine ": "chain,split:fine",
		"cfa":                 "cfa:65536/16384",
	}
	for spec, want := range terse {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := pl.String(); got != want {
			t.Fatalf("normalize %q -> %q, want %q", spec, got, want)
		}
		again, err := core.ParsePipeline(pl.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", pl.String(), err)
		}
		if again.String() != pl.String() {
			t.Fatalf("canonical form not stable: %q -> %q", pl.String(), again.String())
		}
	}
}

func TestParsePipelineBadArgs(t *testing.T) {
	for _, spec := range []string{
		"", "split:coarse", "porder:random", "align:0", "align:x",
		"cfa:1024/4096", "chain:x", "materialize:x", "ipchain:x",
		"split:hotcold@0", "split:hotcold@x", "txfuse:101", "txfuse:x",
		"cfa:512/128junk", "cfa:512/128/7", "cfa:512", "cfa:x/128",
	} {
		if _, err := core.ParsePipeline(spec); err == nil {
			t.Fatalf("expected error for spec %q", spec)
		}
	}
}

func TestPipelineStageOrderEnforced(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := progtest.RandProgram(r, 4)
	pf := progtest.RandProfile(r, p, 10, 200)
	for _, spec := range []string{
		"split:fine,chain",          // chaining after splitting
		"porder:ph,split:fine",      // splitting after ordering
		"porder:ph,porder:orig",     // double ordering
		"split:fine,split:none",     // double splitting
		"porder:ph,ipchain",         // call chaining after ordering
		"materialize,materialize",   // double materialization
		"materialize,cfa:4096/1024", // CFA after materialization
		"materialize,align:8",       // alignment after materialization
	} {
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec, err)
		}
		if _, _, err := pl.Run(p, pf); err == nil {
			t.Fatalf("expected stage-order error running %q", spec)
		}
	}
}

// hotFirstPass is a custom ordering pass used to exercise registration.
type hotFirstPass struct{}

func (hotFirstPass) Name() string { return "test-hotfirst" }

func (hotFirstPass) Run(st *core.LayoutState) error {
	if st.UnitOrder != nil {
		return errors.New("units already ordered")
	}
	st.EnsureUnits()
	order := core.OriginalOrder(st.Units)
	var hot, cold []int
	for _, i := range order {
		if st.Units[i].Hot {
			hot = append(hot, i)
		} else {
			cold = append(cold, i)
		}
	}
	st.UnitOrder = append(hot, cold...)
	return nil
}

// baselineMatPass is a custom materializing pass: a pipeline ending in it
// must not have a second materialization forced on it.
type baselineMatPass struct{}

func (baselineMatPass) Name() string { return "test-basemat" }

func (baselineMatPass) Run(st *core.LayoutState) error {
	l, err := program.BaselineLayout(st.Prog)
	if err != nil {
		return err
	}
	st.Layout = l
	return nil
}

func TestCustomMaterializingPass(t *testing.T) {
	if err := core.RegisterPass("test-basemat", func(arg string) (core.Pass, error) {
		return baselineMatPass{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	p := progtest.RandProgram(r, 5)
	pf := progtest.RandProfile(r, p, 10, 200)
	pl, err := core.ParsePipeline("test-basemat")
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := pl.Run(p, pf)
	if err != nil {
		t.Fatalf("pipeline ending in a custom materializer failed: %v", err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterCustomPass(t *testing.T) {
	err := core.RegisterPass("test-hotfirst", func(arg string) (core.Pass, error) {
		return hotFirstPass{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterPass("test-hotfirst", func(string) (core.Pass, error) { return nil, nil }); err == nil {
		t.Fatal("expected duplicate-registration error")
	}
	if err := core.RegisterPass("bad:name", func(string) (core.Pass, error) { return nil, nil }); err == nil {
		t.Fatal("expected invalid-name error")
	}
	pl, err := core.ParsePipeline("chain,split:fine,test-hotfirst")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	p := progtest.RandProgram(r, 6)
	pf := progtest.RandProfile(r, p, 20, 300)
	l, rep, err := pl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Units == 0 {
		t.Fatal("empty report")
	}
	found := false
	for _, n := range core.RegisteredPasses() {
		if n == "test-hotfirst" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom pass not listed in RegisteredPasses")
	}
}
