package trace

import (
	"cmp"
	"slices"

	"codelayout/internal/isa"
	"codelayout/internal/stats"
)

// MaxCPUs bounds the number of processors per-CPU sinks track.
const MaxCPUs = 64

// SeqLen measures the number of sequentially executed instructions between
// control breaks (Figure 8 of the paper). A sequence continues as long as
// each run it is fed starts where the last one it was fed on the same CPU
// ended; any other start — a taken branch, call or return — ends it. It sees
// only what it is fed: fed the application stream alone, as the battery
// feeds it, an application run that resumes where its CPU's last one ended
// extends the sequence even though kernel code ran between the two.
type SeqLen struct {
	// Hist buckets sequence lengths; the paper plots 1..33 with overflow.
	Hist *stats.Hist
	// Runs counts the runs fed, on every CPU, joined to a sequence or not.
	Runs uint64
	// cur tracks the open sequence per CPU.
	curEnd [MaxCPUs]uint64
	curLen [MaxCPUs]int32
	open   [MaxCPUs]bool
}

// NewSeqLen creates a sequence-length sink with the paper's bucket range.
func NewSeqLen() *SeqLen {
	return &SeqLen{Hist: stats.NewHist(1, 33)}
}

// Fetch implements Sink.
func (s *SeqLen) Fetch(r FetchRun) {
	s.Runs++
	c := r.CPU
	if s.open[c] && r.Addr == s.curEnd[c] {
		s.curLen[c] += r.Words
		s.curEnd[c] = r.End()
		return
	}
	if s.open[c] {
		s.Hist.Add(int(s.curLen[c]))
	}
	s.open[c] = true
	s.curLen[c] = r.Words
	s.curEnd[c] = r.End()
}

// Flush closes all open sequences; call it once the stream has ended,
// before reading Hist.
func (s *SeqLen) Flush() {
	for c := range s.open {
		if s.open[c] {
			s.Hist.Add(int(s.curLen[c]))
			s.open[c] = false
		}
	}
}

// Reset readies s for another stream: it is then as NewSeqLen made it. The
// histogram is a new one, so one taken from Hist before stays as it was.
func (s *SeqLen) Reset() { *s = SeqLen{Hist: stats.NewHist(s.Hist.Min, s.Hist.Max)} }

// Footprint counts unique cache lines (and pages) touched by the stream, the
// measure the paper uses for "footprint in number of unique cache lines
// touched during execution".
type Footprint struct {
	LineBytes int
	lines     bitset
	pages     bitset
}

// NewFootprint creates a footprint sink for the given line size.
func NewFootprint(lineBytes int) *Footprint {
	return &Footprint{LineBytes: lineBytes}
}

// Fetch implements Sink.
func (f *Footprint) Fetch(r FetchRun) {
	lb := uint64(f.LineBytes)
	first := r.Addr / lb
	last := (r.End() - 1) / lb
	for ln := first; ln <= last; ln++ {
		f.lines.add(ln)
	}
	pFirst := r.Addr / isa.PageBytes
	pLast := (r.End() - 1) / isa.PageBytes
	for pg := pFirst; pg <= pLast; pg++ {
		f.pages.add(pg)
	}
}

// Reset readies f for another stream: it is then as NewFootprint made it.
func (f *Footprint) Reset() { *f = Footprint{LineBytes: f.LineBytes} }

// Lines returns the number of unique cache lines touched.
func (f *Footprint) Lines() int { return f.lines.n }

// Bytes returns the touched footprint in bytes (lines × line size).
func (f *Footprint) Bytes() int64 { return int64(f.lines.n) * int64(f.LineBytes) }

// Pages returns the number of unique pages touched.
func (f *Footprint) Pages() int { return f.pages.n }

// bitset is a counted set of numbers that are dense within a few far-apart
// ranges, as the line and page numbers of text are (application and kernel
// text each start at one base): fixed-size chunks of bits, sorted by the
// range they cover, the chunk last used tried first.
type bitset struct {
	chunks []*bitChunk
	last   *bitChunk
	n      int // members
}

const chunkShift = 15 // bits per chunk, log2: 4 KB of bits

type bitChunk struct {
	key  uint64 // the numbers it covers, >> chunkShift
	bits [1 << chunkShift / 64]uint64
}

func (b *bitset) add(v uint64) {
	c := b.last
	if key := v >> chunkShift; c == nil || c.key != key {
		i, ok := slices.BinarySearchFunc(b.chunks, key, func(c *bitChunk, key uint64) int { return cmp.Compare(c.key, key) })
		if !ok {
			b.chunks = slices.Insert(b.chunks, i, &bitChunk{key: key})
		}
		c = b.chunks[i]
		b.last = c
	}
	word, bit := &c.bits[v>>6&(1<<chunkShift/64-1)], uint64(1)<<(v&63)
	if *word&bit == 0 {
		*word |= bit
		b.n++
	}
}
