package expt_test

import (
	"reflect"
	"sync"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/ordere"
	"codelayout/internal/program"
	"codelayout/internal/tpcb"
)

// pinnedOptions is the exact configuration the pre-refactor harness was
// measured under (see TestSelfTrainedTPCBPinned); the golden numbers below
// were captured at the commit before the train/eval split.
func pinnedOptions() expt.Options {
	o := expt.QuickOptions()
	o.Transactions = 60
	o.WarmupTxns = 15
	o.Train.Txns = 150
	o.CPUs = 2
	o.ProcsPerCPU = 4
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 5, AccountsPerBranch: 250})
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	return o
}

// TestSelfTrainedTPCBPinned pins the refactor's compatibility contract: the
// shards=1, self-trained TPC-B path must remain bit-identical to the
// pre-refactor Session — same simulation, same training run, same memo
// semantics. The constants were captured by running the pre-refactor code at
// this exact configuration; any drift here means the profile-source seam
// changed the default path, not just added to it.
func TestSelfTrainedTPCBPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	s, err := expt.NewSession(pinnedOptions())
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		committed, appInstrs, kernInstrs       uint64
		app4W64, app4W128, comb4W64            uint64
		itlb64, logFlushes, grouped, conflicts uint64
		foot                                   int64
	}
	want := map[string]pin{
		"base": {
			committed: 60, appInstrs: 861729, kernInstrs: 114501,
			app4W64: 15350, app4W128: 3671, comb4W64: 23661,
			itlb64: 894, logFlushes: 36, grouped: 40, conflicts: 73,
			foot: 134528,
		},
		"all": {
			committed: 60, appInstrs: 815984, kernInstrs: 115771,
			app4W64: 2773, app4W128: 1341, comb4W64: 9782,
			itlb64: 130, logFlushes: 36, grouped: 40, conflicts: 73,
			foot: 90624,
		},
	}
	for name, w := range want {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{
			committed: m.Res.Committed, appInstrs: m.Res.AppInstrs, kernInstrs: m.Res.KernelInstrs,
			app4W64: m.App4W[64].Misses, app4W128: m.App4W[128].Misses, comb4W64: m.Comb4W[64].Misses,
			itlb64: m.ITLB64, logFlushes: m.Res.LogFlushes, grouped: m.Res.GroupedCommits,
			conflicts: m.Res.LockConflicts, foot: m.Foot.Bytes,
		}
		if got != w {
			t.Errorf("%s: pre-refactor pin broken:\n got %+v\nwant %+v", name, got, w)
		}
	}
}

// tinyTrainOptions is pinnedOptions shrunk further, plus the order-entry
// workload the train/eval tests transplant from.
func tinyTrainOptions() (expt.Options, *ordere.Workload) {
	o := pinnedOptions()
	o.Transactions = 40
	o.WarmupTxns = 10
	o.Train.Txns = 100
	return o, ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
}

// TestTrainEvalMemoSeparation is the regression test for the train × eval
// seam: a session is bound to one train config, so the pairs are sessions
// over one source. Layouts trained under different train configs must never
// share memo entries, while equal-spec sessions must alias the same memoized
// layouts and stay deterministic.
func TestTrainEvalMemoSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o, oe := tinyTrainOptions()
	src, err := expt.NewProfileSource(o, oe)
	if err != nil {
		t.Fatal(err)
	}
	// open returns a session over src evaluating o, trained as train edits
	// o.Train.
	open := func(src *expt.ProfileSource, train func(*expt.TrainConfig)) *expt.Session {
		so := o
		train(&so.Train)
		s, err := expt.NewSessionFrom(src, so)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	layoutOf := func(s *expt.Session) *program.Layout {
		l, err := s.Layout("all")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	measureOf := func(s *expt.Session) *expt.Measure {
		m, err := s.Measure("all", s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	self := open(src, func(*expt.TrainConfig) {})                                      // resolves to tpcb, the eval workload
	cross := open(src, func(tc *expt.TrainConfig) { tc.Workload = oe })                // trained on order-entry
	crossSeed := open(src, func(tc *expt.TrainConfig) { tc.Seed = o.Seed + 99 })       // same workload, different run
	again := open(src, func(tc *expt.TrainConfig) { tc.Workload = self.Opt.Workload }) // self, spelled out
	if cross.TrainSpec() == self.TrainSpec() || crossSeed.TrainSpec() == self.TrainSpec() {
		t.Fatalf("distinct train configs resolved to one spec %s", self.TrainSpec())
	}
	if again.TrainSpec() != self.TrainSpec() {
		t.Fatalf("explicit spelling of the self-trained config resolved to %s, not %s", again.TrainSpec(), self.TrainSpec())
	}

	selfL, crossL, seedL := layoutOf(self), layoutOf(cross), layoutOf(crossSeed)
	if selfL == crossL || selfL == seedL {
		t.Fatal("layouts trained under different train configs share a memo entry")
	}
	sameAddrs := true
	for b := range selfL.Place {
		if selfL.Place[b].Addr() != crossL.Place[b].Addr() {
			sameAddrs = false
			break
		}
	}
	if sameAddrs {
		t.Fatal("cross-workload-trained layout is address-identical to self-trained (profile not actually different?)")
	}
	selfRep, crossRep := self.Report("all"), cross.Report("all")
	if selfRep == nil || crossRep == nil || selfRep == crossRep {
		t.Fatalf("reports do not follow the session's train config (self=%p cross=%p)", selfRep, crossRep)
	}

	// Equal specs alias across sessions: layouts are memoized on the source,
	// so a second session of the same train spec hits the same entries, and
	// the layout memo missed once per distinct train spec.
	if layoutOf(again) != selfL || again.Report("all") != selfRep {
		t.Fatal("sessions of equal train spec did not share the layout memo")
	}
	if ms := self.MemoStats(); ms.Layout.Misses != 3 || ms.Train.Misses != 3 {
		t.Fatalf("3 distinct train specs built %d layouts from %d training runs", ms.Layout.Misses, ms.Train.Misses)
	}

	// Measures: self vs cross must be distinct runs with distinct results;
	// repeated calls on one session alias.
	mSelf, mCross := measureOf(self), measureOf(cross)
	if reflect.DeepEqual(mSelf, mCross) {
		t.Fatal("transplanted-layout measure is value-identical to self-trained — memo collision or dead seam")
	}
	if measureOf(self) != mSelf {
		t.Fatal("repeated self-trained measure did not hit the memo")
	}

	// Determinism across sources: a fresh source+session pair reproduces
	// the transplanted measure bit for bit.
	src2, err := expt.NewProfileSource(o, oe)
	if err != nil {
		t.Fatal(err)
	}
	mCross2 := measureOf(open(src2, func(tc *expt.TrainConfig) { tc.Workload = oe }))
	if mCross.Res != mCross2.Res {
		t.Fatalf("transplanted measure not deterministic:\n%+v\n%+v", mCross.Res, mCross2.Res)
	}
	if !reflect.DeepEqual(mCross, mCross2) {
		t.Fatal("transplanted measures differ between identical sessions")
	}
}

// TestConcurrentSessionsOneSource: eight sessions — two per train config,
// four train configs — measure concurrently over one source. Every method of
// a session is safe for concurrent use and nothing in it is written after
// construction, so each result must equal the one a serial run over a fresh
// source produces, from one training run and one layout per train spec.
func TestConcurrentSessionsOneSource(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o, oe := tinyTrainOptions()
	trains := []func(*expt.TrainConfig){
		func(*expt.TrainConfig) {},
		func(tc *expt.TrainConfig) { tc.Workload = oe },
		func(tc *expt.TrainConfig) { tc.Seed = o.Seed + 99 },
		func(tc *expt.TrainConfig) { tc.Shards = 2 },
	}
	// sessions opens n sessions per train config over a fresh source.
	sessions := func(n int) []*expt.Session {
		src, err := expt.NewProfileSource(o, oe)
		if err != nil {
			t.Fatal(err)
		}
		var out []*expt.Session
		for _, train := range trains {
			so := o
			train(&so.Train)
			for i := 0; i < n; i++ {
				s, err := expt.NewSessionFrom(src, so)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, s.Reading(expt.NoSinks))
			}
		}
		return out
	}

	serial := make(map[string]*expt.Measure)
	for _, s := range sessions(1) {
		m, err := s.Measure("all", s.Opt.CPUs)
		if err != nil {
			t.Fatal(err)
		}
		serial[s.TrainSpec()] = m
	}
	if len(serial) != len(trains) {
		t.Fatalf("%d train configs resolved to %d specs", len(trains), len(serial))
	}

	conc := sessions(2)
	got := make([]*expt.Measure, len(conc))
	errs := make([]error, len(conc))
	var wg sync.WaitGroup
	for i, s := range conc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Measure("all", s.Opt.CPUs)
		}()
	}
	wg.Wait()
	for i, s := range conc {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], serial[s.TrainSpec()]) {
			t.Errorf("session %d (train %s): concurrent measure differs from the serial one", i, s.TrainSpec())
		}
	}
	ms := conc[0].MemoStats()
	if ms.Train.Misses != uint64(len(trains)) {
		t.Errorf("%d training runs for %d train specs", ms.Train.Misses, len(trains))
	}
	// One "all" layout per train spec, plus the two shared baselines the
	// measured machine runs the kernel (kbase) and the training (base) over.
	if want := uint64(len(trains)) + 1; ms.Layout.Misses != want {
		t.Errorf("%d layout builds, want %d", ms.Layout.Misses, want)
	}
}
