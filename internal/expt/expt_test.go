package expt_test

import (
	"strings"
	"sync"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/tpcb"
)

// sharedSession is built once; experiments memoize runs inside it.
var sharedSession *expt.Session

func session(t *testing.T) *expt.Session {
	t.Helper()
	if sharedSession != nil {
		return sharedSession
	}
	o := expt.QuickOptions()
	// Even quicker for unit tests.
	o.Transactions = 60
	o.WarmupTxns = 15
	o.Train.Txns = 150
	o.CPUs = 2
	o.ProcsPerCPU = 4
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 5, AccountsPerBranch: 250})
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	sharedSession = s
	return s
}

func TestRegistryIsComplete(t *testing.T) {
	ids := expt.IDs()
	want := []string{
		"fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "footprint", "hw21164",
		"speedup", "kernopt", "abl-split", "abl-cfa", "abl-profile",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, err := expt.Get("fig04"); err != nil {
		t.Fatal(err)
	}
	if _, err := expt.Get("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	s := session(t)
	for _, id := range expt.IDs() {
		tables, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tb := range tables {
			out := tb.String()
			if !strings.Contains(out, "==") || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table:\n%s", id, out)
			}
		}
	}
}

// TestIPChainLayoutRuns checks that the extension combo resolves through the
// session's pass-pipeline specs and produces a distinct, valid layout.
func TestIPChainLayoutRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s := session(t)
	spec, err := s.PipelineSpec("ipchain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec, "ipchain") {
		t.Fatalf("ipchain spec = %q", spec)
	}
	if _, err := s.PipelineSpec("ipchian"); err == nil {
		t.Fatal("expected error for misspelled layout name")
	}
	if spec, err := s.PipelineSpec("base"); err != nil || spec != "" {
		t.Fatalf("base spec = %q, %v", spec, err)
	}
	l, err := s.Layout("ipchain")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ph, err := s.Layout("chain+porder")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for b := range l.Place {
		if l.Place[b].Addr() != ph.Place[b].Addr() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ipchain layout identical to chain+porder")
	}
	if ipc, php := s.Report("ipchain"), s.Report("chain+porder"); ipc.HotUnits >= php.HotUnits {
		t.Fatalf("ipchain did not merge hot units: %d vs %d", ipc.HotUnits, php.HotUnits)
	}
}

// TestMeasureBatchParallel checks that the bounded worker pool produces the
// same memoized measurements a serial loop would, and that concurrent
// Measure calls for one key share a single run.
func TestMeasureBatchParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s := session(t)
	names := []string{"base", "chain", "porder"}
	if err := s.MeasureBatch(names, s.Opt.CPUs, 2); err != nil {
		t.Fatal(err)
	}
	// Serial calls must now be memo hits returning the identical objects.
	var serial []*expt.Measure
	for _, n := range names {
		m, err := s.Measure(n, s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, m)
	}
	// Hammer the same keys concurrently; every result must alias the memo.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Measure(names[i%len(names)], s.Opt.CPUs)
			if err != nil {
				t.Error(err)
				return
			}
			if m != serial[i%len(names)] {
				t.Errorf("concurrent Measure(%s) returned a different object", names[i%len(names)])
			}
		}(i)
	}
	wg.Wait()
}

// TestHeadlineShapes asserts the paper's qualitative results hold in the
// quick configuration: big app-only miss reductions at 64-128KB, smaller
// combined reductions, porder-alone not helping much, sequences lengthening.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s := session(t)
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{64, 128} {
		b, o := base.App4W[size].Misses, opt.App4W[size].Misses
		if o >= b {
			t.Fatalf("no app miss reduction at %dKB: %d -> %d", size, b, o)
		}
		red := 1 - float64(o)/float64(b)
		t.Logf("app-only reduction at %dKB: %.1f%%", size, red*100)
		if red < 0.25 {
			t.Errorf("reduction at %dKB only %.1f%%, paper band is 55-65%%", size, red*100)
		}
		bc, oc := base.Comb4W[size].Misses, opt.Comb4W[size].Misses
		if oc >= bc {
			t.Fatalf("no combined reduction at %dKB", size)
		}
	}
	if opt.Seq.Hist.Mean() <= base.Seq.Hist.Mean() {
		t.Errorf("sequences did not lengthen: %.2f -> %.2f", base.Seq.Hist.Mean(), opt.Seq.Hist.Mean())
	}
	if opt.Foot.Bytes() >= base.Foot.Bytes() {
		t.Errorf("footprint did not shrink: %d -> %d", base.Foot.Bytes(), opt.Foot.Bytes())
	}
	if opt.Word.UnusedFetchedFrac() >= base.Word.UnusedFetchedFrac() {
		t.Errorf("unused fetched fraction did not drop: %.2f -> %.2f",
			base.Word.UnusedFetchedFrac(), opt.Word.UnusedFetchedFrac())
	}
	if opt.ITLB64 >= base.ITLB64 {
		t.Errorf("iTLB misses did not drop: %d -> %d", base.ITLB64, opt.ITLB64)
	}
}
