package stats_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"codelayout/internal/stats"
)

func TestHistBasics(t *testing.T) {
	h := stats.NewHist(1, 10)
	h.Add(1)
	h.AddN(5, 3)
	h.Add(100) // overflow bucket
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if got := h.Frac(5); got != 0.6 {
		t.Fatalf("frac(5) = %f", got)
	}
	if h.Mean() != (1+15+100)/5.0 {
		t.Fatalf("mean = %f", h.Mean())
	}
}

func TestHistClamping(t *testing.T) {
	h := stats.NewHist(1, 4)
	h.Add(0)  // below min clamps to first bucket
	h.Add(99) // above max clamps to overflow
	if h.Counts[0] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	h.Add(2)
	h.Add(5) // Max+1 is the overflow bucket too
	// Frac reads the bucket Add fills: below Min the first, past Max the
	// overflow one.
	for _, c := range []struct {
		v    int
		want float64
	}{{-3, 0.25}, {0, 0.25}, {1, 0.25}, {2, 0.25}, {3, 0}, {4, 0}, {5, 0.5}, {6, 0.5}, {99, 0.5}} {
		if got := h.Frac(c.v); got != c.want {
			t.Errorf("Frac(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestHistMerge(t *testing.T) {
	a, b := stats.NewHist(0, 5), stats.NewHist(0, 5)
	a.Add(2)
	b.AddN(3, 4)
	a.Merge(b)
	if a.N != 5 || a.Counts[3] != 4 {
		t.Fatalf("merge: N=%d counts=%v", a.N, a.Counts)
	}
}

func TestLog2Hist(t *testing.T) {
	h := &stats.Log2Hist{}
	h.Add(0)  // bucket 0
	h.Add(1)  // bucket 0
	h.Add(2)  // bucket 1
	h.Add(3)  // bucket 1
	h.Add(16) // bucket 4
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[4] != 1 {
		t.Fatalf("buckets = %v", h.Counts)
	}
	if h.Frac(1) != 0.4 {
		t.Fatalf("frac = %f", h.Frac(1))
	}
}

func TestCumulativeProfile(t *testing.T) {
	static := []int64{100, 200, 50}
	dyn := []uint64{10, 80, 10}
	pts := stats.CumulativeProfile(static, dyn)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Hottest first: item 1 (80), then items 0 and 2 (tie broken by index).
	if pts[0].Bytes != 200 || pts[0].Frac != 0.8 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	if pts[2].Frac != 1.0 || pts[2].Bytes != 350 {
		t.Fatalf("pts[2] = %+v", pts[2])
	}
	if got := stats.CoverageAt(pts, 0.8); got != 200 {
		t.Fatalf("coverage(0.8) = %d", got)
	}
	if got := stats.FracAtBytes(pts, 300); got != 0.9 {
		t.Fatalf("fracAt(300) = %f", got)
	}
}

func TestCumulativeProfileSkipsColdCode(t *testing.T) {
	pts := stats.CumulativeProfile([]int64{10, 10}, []uint64{5, 0})
	if len(pts) != 1 {
		t.Fatalf("cold code included: %v", pts)
	}
}

func TestCumulativeProfileMonotonicProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		static := make([]int64, len(raw))
		dyn := make([]uint64, len(raw))
		for i, v := range raw {
			static[i] = int64(v%512) + 1
			dyn[i] = uint64(v) % 97
		}
		pts := stats.CumulativeProfile(static, dyn)
		for i := 1; i < len(pts); i++ {
			if pts[i].Bytes < pts[i-1].Bytes || pts[i].Frac < pts[i-1].Frac-1e-12 {
				return false
			}
		}
		if len(pts) > 0 && pts[len(pts)-1].Frac < 0.999999 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := stats.NewTable("Demo", "name", "misses")
	tb.AddRow("base", 12345.0)
	tb.AddRow("opt", 678.9)
	tb.Note("just a test")
	out := tb.String()
	for _, want := range []string{"== Demo ==", "name", "misses", "base", "12345", "678.9", "note: just a test"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := stats.NewTable("x", "a", "b")
	tb.AddRow("v,1", 2)
	var sb strings.Builder
	tb.CSV(&sb)
	if !strings.Contains(sb.String(), `"v,1",2`) {
		t.Fatalf("csv escaping: %q", sb.String())
	}
}

func TestPct(t *testing.T) {
	if got := stats.Pct(0.333); got != "33.3%" {
		t.Fatalf("pct = %q", got)
	}
}
