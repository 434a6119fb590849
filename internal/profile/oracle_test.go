package profile_test

import (
	"bytes"
	"math/rand"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// mapPixie is the reference the slot collector is checked against: the exact
// collector as it was before the slots, one map increment per edge traversal.
type mapPixie struct{ pf *profile.Profile }

func newMapPixie(p *program.Program, name string) *mapPixie {
	return &mapPixie{pf: profile.New(name, p)}
}

func (mp *mapPixie) Block(src, b program.BlockID) {
	mp.pf.BlockCount[b]++
	if src != program.NoBlock {
		mp.pf.EdgeCount[program.EdgeKey(src, b)]++
	}
}

// pixiePair feeds every transition to the slot collector and the reference.
type pixiePair struct {
	prog *program.Program
	px   *profile.Pixie
	ref  *mapPixie
}

func newPixiePair(p *program.Program, name string) *pixiePair {
	return &pixiePair{prog: p, px: profile.NewPixie(p, name), ref: newMapPixie(p, name)}
}

func (pp *pixiePair) Block(src, b program.BlockID) {
	pp.px.Block(src, b)
	pp.ref.Block(src, b)
}

// reset starts a fresh window on both sides.
func (pp *pixiePair) reset() {
	pp.px.Reset()
	pp.ref = newMapPixie(pp.prog, pp.ref.pf.Name)
}

// check requires the slot collector's profile to be the reference's, byte for
// byte at rest.
func (pp *pixiePair) check(t *testing.T, what string) {
	t.Helper()
	got, want := pp.px.Profile(), pp.ref.pf
	if !want.HasEdges() {
		t.Fatalf("%s: the reference saw no edges; the run exercised nothing", what)
	}
	gb, _ := got.GobEncode()
	wb, _ := want.GobEncode()
	if !bytes.Equal(gb, wb) {
		for k, n := range want.EdgeCount {
			if got.EdgeCount[k] != n {
				src, dst := program.SplitEdgeKey(k)
				t.Errorf("%s: edge %d→%d (%v block) counted %d, want %d", what, src, dst, pp.prog.Block(src).Kind, got.EdgeCount[k], n)
				break
			}
		}
		t.Fatalf("%s: encoded profile differs from the map collector's (%d vs %d edges, %d vs %d block executions)",
			what, len(got.EdgeCount), len(want.EdgeCount), got.TotalBlocks(), want.TotalBlocks())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %x, want %x", what, got.Fingerprint(), want.Fingerprint())
	}
}

// TestPixieMatchesMapCollector attaches the slot collector and the map
// collector side by side to the app and kernel emitters of whole machine
// runs — TPC-B, order entry on four shards with the fast path, the key-value
// store, and TPC-B on its fused (specialized, cloned) image — and requires
// equal bytes, equal fingerprints and an empty residual map: every
// transition the emitter reports is a static edge of its source, so the
// slots, not the fallback, are what ran. A second window after Reset must
// hold the second run's counts alone.
func TestPixieMatchesMapCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	cases := []struct {
		name   string
		wl     workload.Workload
		layout string
		tune   func(*expt.Options)
	}{
		{"tpcb", tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}), "base", nil},
		{"ordere-4-shards", ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}), "base", func(o *expt.Options) {
			o.Shards = 4
			o.PredictFastPath = true
		}},
		{"ycsb", ycsb.NewScaled(ycsb.Scale{Records: 2500}), "base", func(o *expt.Options) { o.Transactions = 400 }},
		{"tpcb-fusion", tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}), "fusion", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := expt.QuickOptions()
			o.Workload = tc.wl
			o.Transactions, o.WarmupTxns, o.Train.Txns = 100, 8, 100
			o.CPUs, o.ProcsPerCPU = 2, 4
			o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
			if tc.tune != nil {
				tc.tune(&o)
			}
			s, err := expt.NewSession(o)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.MachineConfig(tc.layout, o.CPUs)
			if err != nil {
				t.Fatal(err)
			}
			if fused := cfg.AppImage != s.AppImage(); fused != (tc.layout == "fusion") {
				t.Fatalf("layout %q runs on a fused image: %v", tc.layout, fused)
			}
			app := newPixiePair(cfg.AppImage.Prog, "app")
			kern := newPixiePair(cfg.KernImage.Prog, "kern")
			cfg.AppCollector, cfg.KernCollector = app, kern
			for _, window := range []string{"first window", "window after Reset"} {
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				for _, pp := range []*pixiePair{app, kern} {
					what := pp.ref.pf.Name + ", " + window
					pp.check(t, what)
					if n := pp.px.ResidualEdges(); n != 0 {
						t.Fatalf("%s: %d edges counted in the residual map; the emitter reported a transition that is no static edge", what, n)
					}
					pp.reset()
				}
				cfg.Seed++ // the second window is another run, so stale counts cannot pass for fresh ones
			}
		})
	}
}

// TestPixieResidualKeepsForeignEdges: a transition that is no static edge of
// its source — nothing the emitter reports, but nothing the collector may
// lose either — is counted exactly, through the residual map.
func TestPixieResidualKeepsForeignEdges(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 2+r.Intn(5))
		pp := newPixiePair(p, "rand")
		for w := 0; w < 10; w++ {
			progtest.Walk(r, p, 200, pp.Block)
		}
		if n := pp.px.ResidualEdges(); n != 0 {
			t.Fatalf("seed %d: %d residual edges after walks over static edges only", seed, n)
		}
		for i := 0; i < 200; i++ {
			pp.Block(program.BlockID(r.Intn(p.NumBlocks())), program.BlockID(r.Intn(p.NumBlocks())))
		}
		pp.check(t, "random transitions")
		if pp.px.ResidualEdges() == 0 {
			t.Fatalf("seed %d: 200 random transitions and none outside the static edges", seed)
		}
		pp.reset()
		if n := pp.px.ResidualEdges(); n != 0 {
			t.Fatalf("seed %d: Reset left %d residual edges", seed, n)
		}
		for i := 0; i < 50; i++ {
			pp.Block(program.BlockID(r.Intn(p.NumBlocks())), program.BlockID(r.Intn(p.NumBlocks())))
		}
		pp.check(t, "random transitions after Reset")
	}
}
