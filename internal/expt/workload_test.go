package expt_test

import (
	"reflect"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// tinyOptions returns the smallest session configuration that still runs
// every pipeline meaningfully for the given workload.
func tinyOptions(wl workload.Workload) expt.Options {
	o := expt.QuickOptions()
	o.Transactions = 60
	o.WarmupTxns = 15
	o.Train.Txns = 150
	o.CPUs = 2
	o.ProcsPerCPU = 4
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	o.Workload = wl
	return o
}

func tinyOrdere() workload.Workload {
	return ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
}

// TestOrderEntryPipelinesReduceMisses is the cross-workload acceptance
// check: the full pass pipeline (chain,split,porder,cfa,align — the "cfa"
// combo) and the inter-procedural "ipchain" combo both produce a lower
// application miss ratio than baseline on the order-entry workload, i.e.
// the layout wins are not TPC-B artifacts.
func TestOrderEntryPipelinesReduceMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s, err := expt.NewSession(tinyOptions(tinyOrdere()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MeasureBatch([]string{"base", "all", "cfa", "ipchain"}, s.Opt.CPUs, 0); err != nil {
		t.Fatal(err)
	}
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"all", "cfa", "ipchain"} {
		opt, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := s.PipelineSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{64, 128} {
			b, o := base.App4W[size].MissRate(), opt.App4W[size].MissRate()
			if o >= b {
				t.Errorf("%s (%s) did not lower the %dKB miss ratio on ordere: %.4f -> %.4f",
					name, spec, size, b, o)
			} else {
				t.Logf("%s @%dKB: miss ratio %.4f -> %.4f (%.1f%% lower)",
					name, size, b, o, 100*(1-o/b))
			}
		}
	}
}

// TestMeasureDeterminism is the regression test for the parallel memo path:
// two sessions with identical options, each measuring through MeasureBatch's
// worker pool, must produce identical Measure results — for both workloads.
// It compares the machine's own results, so it attaches no sinks (the
// battery's determinism is TestShardsOneMeasureMatchesDefault's and the
// pinned tests' job).
func TestMeasureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	workloads := map[string]func() workload.Workload{
		"tpcb": func() workload.Workload {
			return tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
		},
		"ordere": tinyOrdere,
	}
	layouts := []string{"base", "chain"}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			run := func() []*expt.Measure {
				o := tinyOptions(mk())
				o.Transactions = 40
				o.WarmupTxns = 10
				o.Train.Txns = 100
				s, err := expt.NewSession(o)
				if err != nil {
					t.Fatal(err)
				}
				s = s.Reading(expt.NoSinks)
				if err := s.MeasureBatch(layouts, s.Opt.CPUs, 2); err != nil {
					t.Fatal(err)
				}
				var out []*expt.Measure
				for _, l := range layouts {
					m, err := s.Measure(l, s.Opt.CPUs)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, m)
				}
				return out
			}
			a, b := run(), run()
			for i, l := range layouts {
				if a[i].Res != b[i].Res {
					t.Fatalf("%s: machine results differ:\n%+v\n%+v", l, a[i].Res, b[i].Res)
				}
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("%s: measures differ between identical sessions", l)
				}
			}
		})
	}
}
