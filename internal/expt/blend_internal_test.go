package expt

import (
	"testing"

	"codelayout/internal/profile"
)

func blendTestProfile(seed uint64) *profile.Profile {
	pf := &profile.Profile{Name: "app", BlockCount: make([]uint64, 16), EdgeCount: map[uint64]uint64{}}
	for i := range pf.BlockCount {
		pf.BlockCount[i] = seed * uint64(i+1)
	}
	pf.AddEdge(0, 1, seed)
	pf.AddEdge(1, 3, 2*seed)
	pf.AddEdge(3, 0, 3*seed)
	return pf
}

// TestBlendProfiles pins the blend sweep's arithmetic: the end ratios are
// the stale and the fresh profile exactly, weights count by their share of
// the sum, and the inputs are left alone.
func TestBlendProfiles(t *testing.T) {
	old, neu := blendTestProfile(10), blendTestProfile(30)
	oldFP, neuFP := old.Fingerprint(), neu.Fingerprint()
	pfs := []*profile.Profile{old, neu}
	for _, tc := range []struct {
		r    float64
		want uint64
	}{{0, oldFP}, {1, neuFP}} {
		got, err := blendProfiles(pfs, []float64{1 - tc.r, tc.r})
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != tc.want {
			t.Errorf("ratio %v does not give its input profile back", tc.r)
		}
	}

	quarter, err := blendProfiles(pfs, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Block 1: old 20, new 60, weights 0.25/0.75 → 5+45 = 50.
	if got := quarter.Count(1); got != 50 {
		t.Errorf("blended block count = %d, want 50", got)
	}
	same, err := blendProfiles(pfs, []float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if same.Fingerprint() != quarter.Fingerprint() {
		t.Error("blend is not invariant under weight scaling")
	}
	if old.Fingerprint() != oldFP || neu.Fingerprint() != neuFP {
		t.Error("blend modified its inputs")
	}
}
