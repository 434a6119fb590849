// Package stats provides the small statistics toolkit the experiments use:
// integer histograms (linear and log2-bucketed), cumulative execution
// profiles, and aligned text/CSV table rendering matching the figures of the
// paper.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
)

// Hist is an integer-valued histogram with linear buckets. Values above Max
// are clamped into the overflow bucket.
type Hist struct {
	Min, Max int
	Counts   []uint64 // len = Max-Min+2; last bucket is overflow
	N        uint64
	Sum      float64
}

// NewHist creates a histogram covering [min, max] plus an overflow bucket.
func NewHist(min, max int) *Hist {
	if max < min {
		panic("stats: max < min")
	}
	return &Hist{Min: min, Max: max, Counts: make([]uint64, max-min+2)}
}

// Add records one observation of v.
func (h *Hist) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Hist) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	i := v - h.Min
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i] += n
	h.N += n
	h.Sum += float64(v) * float64(n)
}

// Mean returns the average observed value.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Frac returns the fraction of observations with value v (overflow excluded
// unless v > Max, in which case the overflow bucket fraction is returned).
func (h *Hist) Frac(v int) float64 {
	if h.N == 0 {
		return 0
	}
	i := v - h.Min
	if i < 0 || i >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// Merge adds other into h. The histograms must have identical bounds.
func (h *Hist) Merge(other *Hist) {
	if h.Min != other.Min || h.Max != other.Max {
		panic("stats: merging histograms with different bounds")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.N += other.N
	h.Sum += other.Sum
}

// Log2Hist buckets observations by floor(log2(v)). Bucket i counts values in
// [2^i, 2^(i+1)). Values of zero land in bucket 0.
type Log2Hist struct {
	Counts []uint64
	N      uint64
	Sum    float64
}

// Add records one observation.
func (h *Log2Hist) Add(v uint64) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Log2Hist) AddN(v uint64, n uint64) {
	b := 0
	if v > 0 {
		b = bits.Len64(v) - 1
	}
	for len(h.Counts) <= b {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[b] += n
	h.N += n
	h.Sum += float64(v) * float64(n)
}

// Frac returns the fraction of observations in bucket b.
func (h *Log2Hist) Frac(b int) float64 {
	if h.N == 0 || b < 0 || b >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[b]) / float64(h.N)
}

// Merge adds other into h.
func (h *Log2Hist) Merge(other *Log2Hist) {
	for len(h.Counts) < len(other.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.N += other.N
	h.Sum += other.Sum
}

// Clone returns an independent copy of the histogram.
func (h *Log2Hist) Clone() *Log2Hist {
	c := &Log2Hist{N: h.N, Sum: h.Sum}
	c.Counts = append(c.Counts, h.Counts...)
	return c
}

// Log2Bounds returns the value range [lo, hi] of bucket b: [2^b, 2^(b+1)-1],
// except bucket 0, which also holds zero and covers [0, 1].
func Log2Bounds(b int) (lo, hi uint64) {
	if b <= 0 {
		return 0, 1
	}
	return 1 << uint(b), 1<<uint(b+1) - 1
}

// Quantile estimates the q-quantile: it locates the bucket holding the
// ceil(q*N)-th observation and interpolates linearly inside the bucket's
// value range, so the estimate always lies within the bucket that contains
// the true sample quantile. q is clamped to [0, 1]; an empty histogram
// returns 0.
func (h *Log2Hist) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.N)
	if target < 1 {
		target = 1
	}
	var cum float64
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= target {
			lo, hi := Log2Bounds(b)
			frac := (target - prev) / float64(c)
			return lo + uint64(frac*float64(hi-lo))
		}
	}
	_, hi := Log2Bounds(len(h.Counts) - 1)
	return hi // unreachable while counts are consistent with N
}

// CumulativePoint is one point of a cumulative execution profile: after
// including Bytes of the hottest code, Frac of all dynamic instructions are
// covered.
type CumulativePoint struct {
	Bytes int64
	Frac  float64
}

// CumulativeProfile computes the Figure-3-style execution profile: items are
// (staticBytes, dynamicCount) pairs; they are sorted by descending dynamic
// count and accumulated.
func CumulativeProfile(staticBytes []int64, dynCount []uint64) []CumulativePoint {
	if len(staticBytes) != len(dynCount) {
		panic("stats: mismatched profile inputs")
	}
	idx := make([]int, len(dynCount))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if dynCount[ia] != dynCount[ib] {
			return dynCount[ia] > dynCount[ib]
		}
		return ia < ib
	})
	var totalDyn float64
	for _, c := range dynCount {
		totalDyn += float64(c)
	}
	pts := make([]CumulativePoint, 0, len(idx))
	var bytes int64
	var dyn float64
	for _, i := range idx {
		if dynCount[i] == 0 {
			break
		}
		bytes += staticBytes[i]
		dyn += float64(dynCount[i])
		frac := 1.0
		if totalDyn > 0 {
			frac = dyn / totalDyn
		}
		pts = append(pts, CumulativePoint{Bytes: bytes, Frac: frac})
	}
	return pts
}

// CoverageAt returns the number of bytes of hottest code needed to cover the
// given fraction of dynamic instructions.
func CoverageAt(pts []CumulativePoint, frac float64) int64 {
	for _, p := range pts {
		if p.Frac >= frac {
			return p.Bytes
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Bytes
}

// FracAtBytes returns the covered fraction after including the given number
// of bytes of hottest code.
func FracAtBytes(pts []CumulativePoint, bytes int64) float64 {
	var f float64
	for _, p := range pts {
		if p.Bytes > bytes {
			break
		}
		f = p.Frac
	}
	return f
}

// Pct formats a ratio as a percentage string with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
