package expt_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/program"
	"codelayout/internal/search"
	"codelayout/internal/tpcb"
)

// TestSharedChainingMatchesFreshPipelines: a source chains its training
// profile once and every app pipeline installs that one chaining. Built on
// one source — serially, and again as one MeasureAll batch whose two workers
// build layouts side by side — every layout and report of the five search
// seed combos and of a fixed sample of catalog genomes must equal the
// pipeline run afresh over a private copy of the profile. A pass that wrote
// into a shared chain would show up here as a layout that differs (or, under
// the race detector, as a race between the two workers).
func TestSharedChainingMatchesFreshPipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := expt.QuickOptions()
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
	o.Transactions, o.WarmupTxns, o.Train.Txns = 20, 5, 100
	o.CPUs, o.ProcsPerCPU = 2, 4
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000

	names := []string{"all", "ipchain", "fusion", "hotcold", "cfa"}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(44))
	for len(names) < 5+40 {
		if spec := search.RandomGenome(rng).Spec(); !seen[spec] {
			seen[spec] = true
			names = append(names, spec)
		}
	}

	open := func() *expt.Session {
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		return s.Reading(expt.NoSinks)
	}
	serial, batch := open(), open()
	for _, name := range names {
		if _, err := serial.Layout(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := expt.MeasureAll([]*expt.Session{batch}, names, o.CPUs, 2); err != nil {
		t.Fatal(err)
	}

	prof, err := serial.Profile()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		spec, err := serial.PipelineSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.ParsePipeline(spec)
		if err != nil {
			t.Fatal(err)
		}
		img := serial.AppImage()
		var roots []core.KindRoot
		var cloner core.ProcCloner
		if strings.Contains(spec, "txfuse") {
			img = img.Specialize()
			seenRoot := map[program.ProcID]bool{}
			for _, r := range o.Workload.KindRoots() {
				if id := img.Fns[r.Root].Proc.ID; !seenRoot[id] {
					seenRoot[id] = true
					roots = append(roots, core.KindRoot{Kind: r.Kind, Proc: id})
				}
			}
			cloner = img
		}
		want, wantRep, err := pl.RunChained(img.Prog, prof.Clone(), nil, roots, cloner)
		if err != nil {
			t.Fatalf("%s: fresh pipeline: %v", name, err)
		}
		for _, s := range []*expt.Session{serial, batch} {
			got, err := s.Layout(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shared-chaining layout differs from a fresh pipeline's", name)
			}
			if rep := s.Report(name); !reflect.DeepEqual(rep, wantRep) {
				t.Errorf("%s: report %+v, fresh pipeline's %+v", name, rep, wantRep)
			}
		}
	}
}
