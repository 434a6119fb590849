package expt_test

import (
	"reflect"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// TestShardsOneMeasureMatchesDefault pins the refactor's compatibility
// contract at the harness level: a session configured with Shards=1 must
// produce a Measure identical to the default (unset) configuration — the
// pre-refactor single-engine path — including every cache simulator in the
// battery.
func TestShardsOneMeasureMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	mk := func() workload.Workload {
		return tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
	}
	run := func(shards int) *expt.Measure {
		o := tinyOptions(mk())
		o.Transactions = 40
		o.WarmupTxns = 10
		o.Train.Txns = 100
		o.Shards = shards
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Measure("base", s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	def, one := run(0), run(1)
	if def.Res != one.Res {
		t.Fatalf("Shards=1 machine result diverges from default:\n%+v\n%+v", def.Res, one.Res)
	}
	if !reflect.DeepEqual(def, one) {
		t.Fatal("Shards=1 Measure diverges from the default single-engine path")
	}
}

// TestShardedSessionDeterminism: a sharded session is as reproducible as a
// single-engine one — two sessions with identical options (Shards=2) must
// produce identical Measures, and the sharded run must actually route
// cross-shard transactions.
func TestShardedSessionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	run := func() *expt.Measure {
		o := tinyOptions(tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 120}))
		o.Transactions = 40
		o.WarmupTxns = 10
		o.Train.Txns = 100
		o.Shards = 2
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Reading(expt.NoSinks).Measure("base", s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Res != b.Res {
		t.Fatalf("sharded sessions diverge:\n%+v\n%+v", a.Res, b.Res)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sharded Measures differ between identical sessions")
	}
	if a.Res.CrossShard == 0 {
		t.Fatal("sharded session routed no cross-shard transactions")
	}
}
