package codelayout_test

import (
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"codelayout"
	"codelayout/internal/progtest"
)

func TestFacadeOptimizePipeline(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := progtest.RandProgram(r, 8)
	pf := progtest.RandProfile(r, p, 20, 300)
	pl, err := codelayout.ComboPipeline("all")
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestFacadePassPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := progtest.RandProgram(r, 6)
	pf := progtest.RandProfile(r, p, 20, 300)
	pl, err := codelayout.ParsePipeline("chain,split:fine,porder:ph")
	if err != nil {
		t.Fatal(err)
	}
	l, rep, err := pl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The terse spec is the "all" combo.
	all, err := codelayout.ComboPipeline("all")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := all.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	for b := range l.Place {
		if l.Place[b].Addr() != want.Place[b].Addr() {
			t.Fatalf("spec and combo diverged at block %d", b)
		}
	}
	if rep.Units == 0 {
		t.Fatal("empty report")
	}
	if _, err := codelayout.ComboPipeline("ipchain"); err != nil {
		t.Fatal(err)
	}
	names := codelayout.RegisteredPasses()
	if len(names) < 7 {
		t.Fatalf("registered passes = %v", names)
	}
}

// TestFacadeCombosMatchPaper: the table leads with the paper's five pipelines
// in Figure 7 order ("base", the figure's first row, is the original binary
// and no pipeline), and the README's combo table is that table — one "| `name` |
// `spec` |" row per combo, in order, and no row the table lacks.
func TestFacadeCombosMatchPaper(t *testing.T) {
	combos := codelayout.Combos()
	want := []string{"porder", "chain", "chain+split", "chain+porder", "all"}
	for i, n := range want {
		if combos[i].Name != n {
			t.Fatalf("combo %d = %q, want %q", i, combos[i].Name, n)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []codelayout.Combo
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` +\\| `([^`]+,materialize)` +\\|$").FindAllStringSubmatch(string(readme), -1) {
		rows = append(rows, codelayout.Combo{Name: m[1], Spec: m[2]})
	}
	if !reflect.DeepEqual(rows, combos) {
		t.Fatalf("README combo table = %v, want core's %v", rows, combos)
	}
}

func TestFacadeImageBuilders(t *testing.T) {
	cfg := codelayout.DefaultImageConfig(1)
	cfg.LibScale = 0.15
	cfg.ColdWords = 50_000
	img, err := codelayout.BuildOLTPImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if img.Prog.FindProc("tpcb_txn") == nil {
		t.Fatal("missing tpcb_txn")
	}
	kcfg := codelayout.DefaultKernelConfig(2)
	kcfg.ColdWords = 20_000
	kern, err := codelayout.BuildKernelImage(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Prog.FindProc("svc_log_write") == nil {
		t.Fatal("missing svc_log_write")
	}
}

func TestFacadeMachineRun(t *testing.T) {
	cfg := codelayout.DefaultImageConfig(1)
	cfg.LibScale = 0.15
	cfg.ColdWords = 50_000
	img, err := codelayout.BuildOLTPImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := codelayout.DefaultKernelConfig(2)
	kcfg.ColdWords = 20_000
	kern, err := codelayout.BuildKernelImage(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	appL, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := codelayout.BaselineLayout(kern.Prog)
	if err != nil {
		t.Fatal(err)
	}
	px := codelayout.NewPixie(img.Prog, "train")
	m, err := codelayout.NewMachine(codelayout.MachineConfig{
		CPUs: 1, ProcsPerCPU: 2, Seed: 3,
		WarmupTxns: 2, Transactions: 20,
		Workload: codelayout.TPCBScaled(codelayout.Scale{Branches: 3, TellersPerBranch: 3, AccountsPerBranch: 100}),
		AppImage: img, AppLayout: appL,
		KernImage: kern, KernLayout: kernL,
		AppCollector: px,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	prof := px.Profile()
	if res.Committed != 20 || prof.TotalBlocks() == 0 {
		t.Fatalf("committed=%d profileBlocks=%d", res.Committed, prof.TotalBlocks())
	}
	// The collected profile should drive a working optimization.
	pl, err := codelayout.ComboPipeline("all")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := pl.Run(img.Prog, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := codelayout.ExperimentIDs()
	// The paper's 20 experiments, then the claims scorecard.
	if len(ids) != 21 || ids[20] != "claims" {
		t.Fatalf("experiments = %d", len(ids))
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	names := codelayout.Workloads()
	want := map[string]bool{"tpcb": false, "ordere": false, "ycsb": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("workload %q not registered (have %v)", n, names)
		}
	}
	if codelayout.TPCB().Name() != "tpcb" {
		t.Fatal("TPCB() helper broken")
	}
	if codelayout.YCSB().Name() != "ycsb" {
		t.Fatal("YCSB() helper broken")
	}
	if _, err := codelayout.NewWorkload("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestFacadeRegisterWorkload(t *testing.T) {
	mk := func() codelayout.Workload { return codelayout.YCSBMix("facade-mix", 50) }
	if err := codelayout.RegisterWorkload("facade-mix", mk); err != nil {
		t.Fatal(err)
	}
	if err := codelayout.RegisterWorkload("facade-mix", mk); err == nil {
		t.Fatal("duplicate registration must error, not panic")
	}
	wl, err := codelayout.NewWorkload("facade-mix")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "facade-mix" {
		t.Fatalf("name = %q", wl.Name())
	}
	found := false
	for _, n := range codelayout.Workloads() {
		if n == "facade-mix" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered mix missing from Workloads()")
	}
}

// TestFacadeTrainEvalSeam: the train/eval split is reachable through the
// facade — a shared profile source, a self-trained session over it, and a
// second session whose Train.Workload names the other workload.
func TestFacadeTrainEvalSeam(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := codelayout.QuickSessionOptions()
	o.Transactions = 30
	o.WarmupTxns = 10
	o.Train.Txns = 80
	o.CPUs = 1
	o.ProcsPerCPU = 3
	o.LibScale = 0.2
	o.ColdWords = 200_000
	o.KernColdWords = 60_000
	o.Workload = codelayout.TPCBScaled(codelayout.Scale{Branches: 4, TellersPerBranch: 3, AccountsPerBranch: 100})
	stock := codelayout.YCSB().QuickScale()
	src, err := codelayout.NewProfileSource(o, stock)
	if err != nil {
		t.Fatal(err)
	}
	s, err := codelayout.NewSessionFrom(src, o)
	if err != nil {
		t.Fatal(err)
	}
	self, err := s.Measure("all", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	o.Train.Workload = stock
	ts, err := codelayout.NewSessionFrom(src, o)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := ts.Measure("all", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TrainSpec() == s.TrainSpec() || self.Res == cross.Res {
		t.Fatalf("transplanted session (train %s) measured the self-trained layout (train %s)", ts.TrainSpec(), s.TrainSpec())
	}
}
