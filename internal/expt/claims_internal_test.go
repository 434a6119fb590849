package expt

import (
	"math"
	"strings"
	"testing"
)

// TestClaimsAreWellFormed checks the claims table without simulating: unique
// IDs under a registry experiment (fig08's tables as fig08a and fig08b), a
// direction exactly on the effects, an ordered band, and words for the first
// claim of every note.
func TestClaimsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i, c := range claims {
		table, _, ok := strings.Cut(c.ID, "/")
		exp := table
		if table == "fig08a" || table == "fig08b" {
			exp = "fig08"
		}
		if _, err := Get(exp); !ok || err != nil || seen[c.ID] {
			t.Errorf("claim %q: want a unique <experiment>/<name> ID", c.ID)
		}
		seen[c.ID] = true
		if (c.Kind == Effect) != (c.Dir == 1 || c.Dir == -1) || (c.Kind != Effect && c.Kind != Input) {
			t.Errorf("%s: kind %q with direction %d", c.ID, c.Kind, c.Dir)
		}
		if !(c.Band.Lo <= c.Band.Hi) {
			t.Errorf("%s: band %v", c.ID, c.Band)
		}
		first := i == 0 || !strings.HasPrefix(claims[i-1].ID, table+"/")
		if first && c.Says == "" {
			t.Errorf("%s: the first claim of a note needs words", c.ID)
		}
	}
}

// TestJudge walks the one verdict rule across a band's edges.
func TestJudge(t *testing.T) {
	effect := Claim{Kind: Effect, Dir: -1, Band: between(0.4, 0.5)}
	input := Claim{Kind: Input, Band: atLeast(2)}
	for _, tc := range []struct {
		c             Claim
		ours, unmoved float64
		want          Verdict
	}{
		{effect, 0.45, 1, Held},
		{effect, 0.4, 1, Held},
		{effect, 0.31, 1, Near},   // 0.09 under 0.4: within a quarter of it
		{effect, 0.29, 1, Missed}, // 0.11 under
		{effect, 0.62, 1, Near},
		{effect, 0.63, 1, Missed},
		{effect, 0.45, 0.45, Missed}, // in the band, but the layout moved nothing
		{effect, 0.45, 0.3, Missed},  // in the band, but the layout raised it
		{input, 2, 0, Held},
		{input, 1.5, 0, Near},
		{input, 1.4, 0, Missed},
		{Claim{Kind: Effect, Dir: +1, Band: atMost(math.Inf(1))}, 1, 0, Held},
	} {
		sc := Score{Claim: tc.c, Ours: tc.ours, Unmoved: tc.unmoved}
		if got := sc.judge(); got != tc.want {
			t.Errorf("band %v, ours %v, unmoved %v: %s, want %s", tc.c.Band, tc.ours, tc.unmoved, got, tc.want)
		}
	}
}
