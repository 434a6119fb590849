package expt_test

import (
	"fmt"
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
		"speedup", "kernopt", "abl-split", "abl-cfa", "abl-profile", "claims",
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

// TestClaimsPinned pins every claim's standing in the shared tiny session
// (its verdict and, outside the band, which side of it the value lies on),
// and for every effect claim whether the layout moved the value the way the
// paper says. The effects that must move the paper's way include what the
// paper's headline rests on: app-only and combined miss reductions at 64 and
// 128KB, longer sequences, a smaller footprint, fewer unused fetched words
// and fewer iTLB misses. A change that flips a standing or a direction
// updates this pin and says why in CHANGES.md.
func TestClaimsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	scores, err := session(t).Scorecard()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fig03/captured-by-50KB":             "missed above",
		"fig03/needed-for-99":                "missed below",
		"fig03/executed-footprint":           "missed below",
		"fig03/static-binary":                "missed below",
		"fig05/app-dm-64KB":                  "missed below",
		"fig05/app-dm-128KB":                 "missed below",
		"fig06/layout-beats-assoc-32KB":      "held",
		"fig06/layout-beats-assoc-64KB":      "held",
		"fig06/layout-beats-assoc-128KB":     "held",
		"fig07/porder-hurts":                 "missed below",
		"fig07/chain-largest-single":         "held",
		"fig07/all-best":                     "held",
		"fig08a/base-run":                    "held",
		"fig08a/optimized-run":               "held",
		"fig08a/basic-block":                 "near below",
		"fig08b/one-instr-base":              "near above",
		"fig08b/one-instr-optimized":         "near above",
		"fig08b/spike-near-17":               "held",
		"fig09/all-words-used":               "missed below",
		"fig10/base-unused":                  "held",
		"fig10/multi-use":                    "held",
		"fig11/lifetime":                     "near below",
		"fig12/combined-64KB":                "held",
		"fig12/combined-128KB":               "near below",
		"fig12/app-only-64KB":                "missed below",
		"fig12/app-only-128KB":               "held",
		"fig13/app-self":                     "near below",
		"fig13/kernel-by-app":                "held",
		"fig14/itlb":                         "held",
		"fig14/l2-instr":                     "held",
		"fig14/l2-data":                      "missed above",
		"fig15/all-21264":                    "held",
		"fig15/all-21164":                    "near above",
		"footprint/base":                     "missed below",
		"footprint/packed":                   "held",
		"footprint/base-unused":              "near above",
		"footprint/unused":                   "near above",
		"hw21164/icache":                     "held",
		"hw21164/itlb":                       "missed below",
		"hw21164/board":                      "missed above",
		"speedup/21264-1p":                   "held",
		"speedup/21164-1p":                   "held",
		"speedup/simos":                      "near below",
		"speedup/21164-mp":                   "held",
		"kernopt/added-speedup":              "missed above",
		"abl-split/fine-beats-hotcold-64KB":  "missed above",
		"abl-split/fine-beats-hotcold-128KB": "missed above",
		"abl-cfa/hot-exceeds-area":           "held",
		"abl-cfa/no-gain":                    "held",
	}
	// against lists the effects whose layout moves the value away from the
	// paper's direction; every other effect moves it the paper's way.
	against := map[string]bool{
		"fig07/porder-hurts":                 true,
		"fig14/l2-data":                      true,
		"hw21164/board":                      true,
		"abl-split/fine-beats-hotcold-64KB":  true,
		"abl-split/fine-beats-hotcold-128KB": true,
	}
	for _, sc := range scores {
		where := fmt.Sprintf("%s: paper %s, ours %s", sc.ID, sc.Paper(), sc.Show(sc.Ours))
		if got, ok := want[sc.ID]; !ok || got != standing(sc) {
			t.Errorf("%s: %s, pinned %q", where, standing(sc), got)
		}
		if sc.Kind == expt.Effect && sc.Agrees() == against[sc.ID] {
			t.Errorf("%s: moves the paper's way = %v, pinned %v", where, sc.Agrees(), !against[sc.ID])
		}
		delete(want, sc.ID)
	}
	for id := range want {
		t.Errorf("%s: pinned but not a claim", id)
	}
}

// standing is a claim's verdict and, outside the band, the side of it the
// value lies on: a reduction that misses by being too small and one that
// misses by being too large are different results.
func standing(sc expt.Score) string {
	switch {
	case sc.Ours < sc.Band.Lo:
		return string(sc.Verdict) + " below"
	case sc.Ours > sc.Band.Hi:
		return string(sc.Verdict) + " above"
	}
	return string(sc.Verdict)
}
