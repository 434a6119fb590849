package stats_test

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"codelayout/internal/stats"
)

// qGrid is the quantile grid every property below is checked on.
var qGrid = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// log2Bucket mirrors the histogram's bucketing rule for the oracle.
func log2Bucket(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v) - 1
}

// TestLog2HistBucketBoundaries pins the bucket rule at the powers of two:
// 2^k-1 and 2^k must land in adjacent buckets, and Log2Bounds must bracket
// every value of its own bucket.
func TestLog2HistBucketBoundaries(t *testing.T) {
	for k := 1; k < 63; k++ {
		lo := uint64(1) << uint(k)
		h := &stats.Log2Hist{}
		h.Add(lo - 1)
		h.Add(lo)
		if h.Counts[k-1] != 1 || h.Counts[k] != 1 {
			t.Fatalf("k=%d: counts %v, want one in bucket %d and one in %d", k, h.Counts, k-1, k)
		}
		blo, bhi := stats.Log2Bounds(k)
		if blo != lo || bhi != 2*lo-1 {
			t.Fatalf("Log2Bounds(%d) = [%d,%d], want [%d,%d]", k, blo, bhi, lo, 2*lo-1)
		}
	}
	if lo, hi := stats.Log2Bounds(0); lo != 0 || hi != 1 {
		t.Fatalf("Log2Bounds(0) = [%d,%d], want [0,1]", lo, hi)
	}
}

// TestLog2HistQuantileProperty: over randomized seeded inputs, the
// log2-bucketed quantile must land in the same bucket as the true sample
// quantile (the histogram cannot do better than its bucket), lie within
// that bucket's bounds, and be monotone in q.
func TestLog2HistQuantileProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		h := &stats.Log2Hist{}
		n := 1 + r.Intn(300)
		samples := make([]uint64, n)
		for i := range samples {
			// Span many octaves, including 0 and 1.
			samples[i] = uint64(r.Int63n(1 << uint(1+r.Intn(40))))
			h.Add(samples[i])
		}
		sorted := append([]uint64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var prev uint64
		for qi, q := range qGrid {
			got := h.Quantile(q)
			k := int(q * float64(n))
			if float64(k) < q*float64(n) {
				k++
			}
			if k < 1 {
				k = 1
			}
			want := sorted[k-1]
			if log2Bucket(got) != log2Bucket(want) {
				t.Fatalf("trial %d n=%d: Quantile(%g) = %d (bucket %d), oracle %d (bucket %d)",
					trial, n, q, got, log2Bucket(got), want, log2Bucket(want))
			}
			lo, hi := stats.Log2Bounds(log2Bucket(got))
			if got < lo || got > hi {
				t.Fatalf("trial %d: Quantile(%g) = %d outside its bucket [%d,%d]", trial, q, got, lo, hi)
			}
			if qi > 0 && got < prev {
				t.Fatalf("trial %d: Quantile(%g) = %d < previous %d (not monotone)", trial, q, got, prev)
			}
			prev = got
		}
	}
}

func TestLog2HistMeanAndClone(t *testing.T) {
	h := &stats.Log2Hist{}
	h.Add(4)
	h.AddN(10, 3)
	if want := 34.0 / 4; h.Sum/float64(h.N) != want {
		t.Fatalf("mean = %f, want %f", h.Sum/float64(h.N), want)
	}
	c := h.Clone()
	c.Add(1000)
	if h.N != 4 || c.N != 5 {
		t.Fatalf("clone not independent: h.N=%d c.N=%d", h.N, c.N)
	}
	var empty stats.Log2Hist
	if empty.Quantile(0.99) != 0 || empty.Sum != 0 {
		t.Fatal("empty Log2Hist quantile/sum not zero")
	}
	// Merge must carry Sum so merged means stay exact.
	m := &stats.Log2Hist{}
	m.Merge(h)
	if m.Sum != h.Sum || m.N != h.N {
		t.Fatalf("merged sum/N = %f/%d, want %f/%d", m.Sum, m.N, h.Sum, h.N)
	}
}
