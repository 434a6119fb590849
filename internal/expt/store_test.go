package expt_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/pstore"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// storeOpts is a deliberately small configuration the store tests share; two
// invocations of it must resolve to the same store key.
func storeOpts() expt.Options {
	o := expt.QuickOptions()
	o.Transactions = 50
	o.WarmupTxns = 10
	o.Train.Txns = 120
	o.CPUs = 1
	o.ProcsPerCPU = 4
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 200})
	o.LibScale = 0.3
	o.ColdWords = 400_000
	o.KernColdWords = 100_000
	return o
}

// TestProfileStoreWarmSkipsTraining is the pinned store regression: a second
// identical invocation against the same store directory must execute zero
// training runs (the store serves the profile) and produce bit-identical
// measurements — the whole Measure, not just the machine result. The training
// record has one form: the run a hit serves is the entry the store decoded
// (the session's profiles are that entry's, not copies), with a zero
// TrainResult since the store keeps profiles only.
func TestProfileStoreWarmSkipsTraining(t *testing.T) {
	dir := t.TempDir()

	// invoke simulates one process: a fresh Store over the shared directory,
	// a fresh session, one measured layout.
	invoke := func() (*expt.Session, *expt.Measure, pstore.Stats) {
		store, err := pstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := storeOpts()
		o.ProfileStore = store
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Measure("all", 1)
		if err != nil {
			t.Fatal(err)
		}
		return s, m, store.Stats()
	}

	cold, mCold, st1 := invoke()
	if trained := cold.Source().TrainRunsExecuted(); trained != 1 {
		t.Fatalf("cold invocation executed %d training runs, want 1", trained)
	}
	if st1.Misses == 0 || st1.Hits != 0 {
		t.Fatalf("cold invocation store stats: %+v, want a miss and no hits", st1)
	}
	if res, err := cold.TrainResult(); err != nil || res.Committed == 0 {
		t.Fatalf("cold training result: %+v, %v; want the profiling run's", res, err)
	}

	warm, mWarm, st2 := invoke()
	if trained := warm.Source().TrainRunsExecuted(); trained != 0 {
		t.Fatalf("warm invocation executed %d training runs, want 0 (store hit)", trained)
	}
	if st2.Hits == 0 {
		t.Fatalf("warm invocation store stats: %+v, want a hit", st2)
	}
	if !reflect.DeepEqual(mCold, mWarm) {
		t.Fatalf("warm-store measurement diverged from cold:\n cold: %+v\n warm: %+v", mCold.Res, mWarm.Res)
	}
	hit := warm.Source().LastStoreHit()
	app, _ := warm.Profile()
	kern, _ := warm.KernProfile()
	if hit == nil || app != hit.App || kern != hit.Kern {
		t.Fatal("the warm session's profiles are not the decoded entry's own")
	}
	if res, err := warm.TrainResult(); err != nil || res != (machine.Result{}) {
		t.Fatalf("warm training result: %+v, %v; want zero (the store keeps profiles only)", res, err)
	}
}

// TestProfileStoreKeysTheWholeWorkload: the store serves a run only to a run
// of the same workload spec. Per pair, sources share one store directory; the
// second differs from the first only in its mix (ycsb's read share) or its
// scale (tpcb) and must train, not be served the first's profile. A third
// source, identical to the first, hits the store and measures exactly what
// the first, a cold retrain, measured.
func TestProfileStoreKeysTheWholeWorkload(t *testing.T) {
	ycsbAt := func(readPct int) func() workload.Workload {
		return func() workload.Workload {
			w := ycsb.New().QuickScale().(*ycsb.Workload)
			w.ReadPct = readPct
			return w
		}
	}
	for _, c := range []struct {
		name          string
		first, second func() workload.Workload
	}{
		{"ycsb read share", ycsbAt(95), ycsbAt(50)},
		{"tpcb scale", func() workload.Workload { return tpcb.New() }, tpcb.New().QuickScale},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			// invoke is one process: a fresh Store over the shared directory
			// and a fresh source measuring one layout.
			invoke := func(wl workload.Workload) (uint64, *expt.Measure, pstore.Stats) {
				store, err := pstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				o := storeOpts()
				o.Workload, o.ProfileStore = wl, store
				s, err := expt.NewSession(o)
				if err != nil {
					t.Fatal(err)
				}
				m, err := s.Reading(expt.SinkComb4W(64)).Measure("all", 1)
				if err != nil {
					t.Fatal(err)
				}
				return s.Source().TrainRunsExecuted(), m, store.Stats()
			}
			trained, cold, _ := invoke(c.first())
			if trained != 1 {
				t.Fatalf("first source executed %d training runs, want 1", trained)
			}
			if trained, _, st := invoke(c.second()); trained != 1 || st.Hits != 0 {
				t.Errorf("second source executed %d training runs with %d store hits, want 1 and 0: it was served another workload's profile",
					trained, st.Hits)
			}
			trained, warm, st := invoke(c.first())
			if trained != 0 || st.Hits != 1 {
				t.Errorf("third source executed %d training runs with %d store hits, want 0 and 1", trained, st.Hits)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("store-hit measurement diverged from the cold run's:\n cold: %+v\n warm: %+v", cold.Res, warm.Res)
			}
		})
	}
}

// TestProfileStoreHitReported: the source must surface the served entry so
// commands can report its age, and a no-store source must report nothing.
func TestProfileStoreHitReported(t *testing.T) {
	store, err := pstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := storeOpts()
	o.ProfileStore = store

	s1, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Train(); err != nil {
		t.Fatal(err)
	}
	if s1.Source().LastStoreHit() != nil {
		t.Fatal("cold training reported a store hit")
	}

	// A second source sharing the same Store (one process, one directory).
	s2, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Train(); err != nil {
		t.Fatal(err)
	}
	if s2.Source().TrainRunsExecuted() != 0 {
		t.Fatalf("second source retrained despite the shared store (%d runs)", s2.Source().TrainRunsExecuted())
	}
	hit := s2.Source().LastStoreHit()
	if hit == nil {
		t.Fatal("second source served from the store but reports no hit entry")
	}
	if hit.App == nil || hit.Kern == nil || len(hit.KindFreq) == 0 {
		t.Fatalf("hit entry incomplete: %+v", hit)
	}
	// The store is the directory: the second source got the file the first
	// one's record was written to, profiles exact.
	if first, _ := s1.Profile(); hit.App.Fingerprint() != first.Fingerprint() {
		t.Fatal("the entry served to the second source is not the record the first one trained")
	}
}

// TestProfileStoreRetrainsAnIncompleteEntry: a store file whose run lacks
// its DCPI profile is never served. A session over that directory evicts
// it, retrains, and builds "dcpi-all" from the new run's samples instead of
// dereferencing the missing profile.
func TestProfileStoreRetrainsAnIncompleteEntry(t *testing.T) {
	dir := t.TempDir()
	open := func() (*expt.Session, *pstore.Store) {
		store, err := pstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := storeOpts()
		o.ProfileStore = store
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		return s, store
	}
	cold, _ := open()
	if err := cold.Train(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pstore"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store holds %v (%v), want one entry file", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the file without the DCPI profile and its fingerprint: gob
	// matches fields by name, so decoding into this struct drops them.
	var noDCPI struct {
		Spec, Image             string
		CreatedAt               time.Time
		KindNames               []string
		KindFreqs               []float64
		FieldKeys               []string
		FieldReads, FieldWrites []uint64
		App, Kern               *profile.Profile
		AppFP, KernFP           uint64
	}
	header := raw[:bytes.IndexByte(raw, '\n')+1]
	if err := gob.NewDecoder(bytes.NewReader(raw[len(header):])).Decode(&noDCPI); err != nil {
		t.Fatal(err)
	}
	out := bytes.NewBuffer(append([]byte(nil), header...))
	if err := gob.NewEncoder(out).Encode(&noDCPI); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s, store := open()
	if _, err := s.Layout("dcpi-all"); err != nil {
		t.Fatal(err)
	}
	if n := s.Source().TrainRunsExecuted(); n != 1 {
		t.Errorf("the session executed %d training runs, want 1: the incomplete entry must be retrained", n)
	}
	if st := store.Stats(); st.Hits != 0 || st.Evictions != 1 {
		t.Errorf("store stats %+v, want no hit and one eviction", st)
	}
}

// TestBlendTableQuick: the aged-profile blend sweep runs end to end on
// layoutlab's drift pair and the fresh profile serves the drifted-to mix at
// least as well as the stale one.
func TestBlendTableQuick(t *testing.T) {
	f, err := parseFlags(expt.Layoutlab, "-table", "blend", "-ratios", "0,0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := expt.BlendTable(storeOpts(), f.Blend)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	if res.Table == nil || len(res.Table.Rows) != 3 {
		t.Fatalf("blend table malformed: %+v", res.Table)
	}
	for _, c := range res.Cells {
		if c.P99 == 0 || c.InstrPerTxn == 0 || c.MissRatio <= 0 {
			t.Fatalf("degenerate blend cell: %+v", c)
		}
	}
	stale, fresh := res.Cells[0], res.Cells[len(res.Cells)-1]
	if fresh.MissRatio > stale.MissRatio {
		t.Errorf("fresh-profile layout misses more than the stale one under the drifted mix: %.4f > %.4f",
			fresh.MissRatio, stale.MissRatio)
	}
}

// TestBlendTableRejectsBadSpec: a missing workload and name collisions fail
// fast.
func TestBlendTableRejectsBadSpec(t *testing.T) {
	o := storeOpts()
	if _, err := expt.BlendTable(o, expt.BlendSpec{Ratios: []float64{0, 1}}); err == nil {
		t.Error("no workloads: want error")
	}
	if _, err := expt.BlendTable(o, expt.BlendSpec{Old: tpcb.New()}); err == nil {
		t.Error("one workload: want error")
	}
	if _, err := expt.BlendTable(o, expt.BlendSpec{Old: tpcb.New(), New: tpcb.New()}); err == nil {
		t.Error("same-name workloads: want error")
	}
}
