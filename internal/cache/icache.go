// Package cache implements the cache simulator used for every miss study in
// the paper, including the specialized metrics of Section 4.2: unique-word
// usage before replacement (Fig 9), per-word reuse counts (Fig 10), cache
// line lifetimes in cache accesses (Fig 11), unique-line footprint, and the
// application/kernel interference attribution of Fig 13. The same simulator,
// driven one line at a time, is the memory system's L1D and unified L2
// (package mem, Fig 14).
package cache

import (
	"fmt"
	"math/bits"

	"codelayout/internal/isa"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// Owner classifies who filled a cache line or issued a miss.
type Owner uint8

const (
	// OwnerApp marks application text.
	OwnerApp Owner = iota
	// OwnerKernel marks kernel text.
	OwnerKernel
	// OwnerNone marks a cold miss (no valid victim).
	OwnerNone
)

func (o Owner) String() string {
	switch o {
	case OwnerApp:
		return "application"
	case OwnerKernel:
		return "kernel"
	default:
		return "none"
	}
}

// Config describes an instruction cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int // 1 = direct-mapped
	// WordStats enables per-word usage tracking (Figs 9-11 and the
	// unused-fetched-instructions statistic). It costs time and memory, so
	// the big parameter sweeps leave it off.
	WordStats bool
}

// String renders the config like the paper's captions, e.g.
// "128KB/128B/4-way".
func (c Config) String() string {
	way := fmt.Sprintf("%d-way", c.Assoc)
	if c.Assoc == 1 {
		way = "direct"
	}
	return fmt.Sprintf("%dKB/%dB/%s", c.SizeBytes/1024, c.LineBytes, way)
}

// Stats accumulates simulation results. Merge combines per-CPU instances.
type Stats struct {
	Config   Config
	Accesses uint64 // line-granularity accesses
	Misses   uint64
	Fills    uint64
	// MissBy[m] counts misses issued by missing process m (OwnerApp or
	// OwnerKernel).
	MissBy [2]uint64
	// VictimBy[m][v] counts misses by missing process m that displaced a
	// line owned by v (OwnerApp, OwnerKernel, or OwnerNone for cold fills).
	VictimBy [2][3]uint64

	// Word-level metrics (valid when Config.WordStats).
	WordsUsed     *stats.Hist     // unique words used in a line before replacement
	WordReuse     *stats.Hist     // times an individual word is used before replacement
	Lifetime      *stats.Log2Hist // line lifetime in cache accesses
	FetchedWords  uint64          // words brought in by fills
	UsedWordSlots uint64          // word slots used at least once before replacement
}

// NewStats allocates a stats block for the given config.
func NewStats(cfg Config) *Stats {
	s := &Stats{Config: cfg}
	if cfg.WordStats {
		s.WordsUsed = stats.NewHist(0, cfg.LineBytes/isa.WordBytes)
		s.WordReuse = stats.NewHist(0, 15)
		s.Lifetime = &stats.Log2Hist{}
	}
	return s
}

// Merge folds other (same config) into s.
func (s *Stats) Merge(other *Stats) {
	s.Accesses += other.Accesses
	s.Misses += other.Misses
	s.Fills += other.Fills
	for i := range s.MissBy {
		s.MissBy[i] += other.MissBy[i]
		for j := range s.VictimBy[i] {
			s.VictimBy[i][j] += other.VictimBy[i][j]
		}
	}
	if s.Config.WordStats && other.Config.WordStats {
		s.WordsUsed.Merge(other.WordsUsed)
		s.WordReuse.Merge(other.WordReuse)
		s.Lifetime.Merge(other.Lifetime)
		s.FetchedWords += other.FetchedWords
		s.UsedWordSlots += other.UsedWordSlots
	}
}

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// UnusedFetchedFrac returns the fraction of fetched instruction words that
// were never executed before their line was replaced (the paper reports 46%
// baseline vs 21% optimized).
func (s *Stats) UnusedFetchedFrac() float64 {
	if s.FetchedWords == 0 {
		return 0
	}
	return 1 - float64(s.UsedWordSlots)/float64(s.FetchedWords)
}

// Validate reports why c does not describe a cache New can build: every
// dimension positive, a power-of-two line of at least one instruction word,
// and a power-of-two number of sets.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: size %d, line %d and associativity %d must all be positive", c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if c.LineBytes < isa.WordBytes || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two of at least %d bytes", c.LineBytes, isa.WordBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc (%d*%d)", c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if sets := c.SizeBytes / (c.LineBytes * c.Assoc); sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// ICache simulates one cache with LRU replacement: an instruction cache fed
// fetch runs, or — through Access and Invalidate — the memory system's L1D
// and unified L2, where the owner slots tell instruction lines from data.
type ICache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	lineWords int

	// Frame state, flattened as set*assoc+way. The access clock is
	// stats.Accesses.
	tags  []uint64 // line number + 1; 0 = invalid
	owner []Owner
	// Word usage (WordStats only): frames × lineWords saturating counters,
	// and each frame's fill time, which only a line's lifetime reads.
	wordCnt []uint8
	fillAt  []uint64
	// Replacement order, kept only when there is a choice of victim
	// (assoc > 1): lastUse orders the frames of a set, mru[set] is the frame
	// of its most recently used line.
	lastUse []uint64
	mru     []uint32
	missCB  func(lineAddr uint64, kernel bool)

	stats Stats
}

// New creates an instruction cache simulator. It panics on a config that
// does not Validate.
func New(cfg Config) *ICache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &ICache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(numSets - 1),
		assoc:     cfg.Assoc,
		lineWords: cfg.LineBytes / isa.WordBytes,
		tags:      make([]uint64, numSets*cfg.Assoc),
		owner:     make([]Owner, numSets*cfg.Assoc),
		stats:     *NewStats(cfg),
	}
	if cfg.Assoc > 1 {
		c.lastUse = make([]uint64, numSets*cfg.Assoc)
		c.mru = make([]uint32, numSets)
		for set := range c.mru {
			c.mru[set] = uint32(set * cfg.Assoc)
		}
	}
	if cfg.WordStats {
		c.wordCnt = make([]uint8, numSets*cfg.Assoc*c.lineWords)
		c.fillAt = make([]uint64, numSets*cfg.Assoc)
	}
	return c
}

// Config returns the cache configuration.
func (c *ICache) Config() Config { return c.cfg }

// Reset empties c and zeroes its statistics, leaving it equal to what New
// returns for its config, but for the miss callback, which it keeps. It
// reuses every array, so a cache simulated once per run costs its frames
// once, not once per run.
func (c *ICache) Reset() {
	clear(c.tags)
	clear(c.owner)
	clear(c.wordCnt)
	clear(c.fillAt)
	clear(c.lastUse)
	for set := range c.mru {
		c.mru[set] = uint32(set * c.assoc)
	}
	c.stats = *NewStats(c.cfg)
}

// OnMiss registers a callback invoked on every miss with the line-aligned
// address, used to feed a unified L2.
func (c *ICache) OnMiss(cb func(lineAddr uint64, kernel bool)) { c.missCB = cb }

// Fetch implements trace.Sink: it touches every line the run covers and, if
// word stats are enabled, marks each fetched word used.
func (c *ICache) Fetch(r trace.FetchRun) { c.FetchWords(r.Addr, r.Words, r.Kernel) }

// FetchWords is Fetch on the run's bare coordinates, and returns the number
// of misses the run took — the number the machine's inline Pair is held to,
// run by run. A line that already is its set's most recently used — most
// lines of most runs — costs one probe of mruFrame and no lookup.
func (c *ICache) FetchWords(addr uint64, words int32, kernel bool) (misses int) {
	end := addr + uint64(words)*isa.WordBytes
	owner := ownerOf(kernel)
	before := c.stats.Misses
	now := c.stats.Accesses
	for ln, last := addr>>c.lineShift, (end-1)>>c.lineShift; ln <= last; ln++ {
		now++
		frame := c.mruFrame(ln)
		if c.tags[frame] != ln+1 {
			frame, _ = c.lookup(ln, owner, now)
		}
		if c.wordCnt != nil {
			c.markWords(frame, ln, addr, end)
		}
	}
	c.stats.Accesses = now
	return int(c.stats.Misses - before)
}

// Access does one access to line, filling it for owner on a miss, and reports
// whether it hit and, on a miss, the owner of the line it displaced (OwnerNone
// for an empty frame). It is how the memory system drives an ICache as its
// L1D and L2: one line per reference, on the same clock and statistics as
// FetchWords.
func (c *ICache) Access(line uint64, owner Owner) (hit bool, victim Owner) {
	c.stats.Accesses++
	before := c.stats.VictimBy[owner]
	c.lookup(line, owner, c.stats.Accesses)
	// A miss moves exactly one cell of its VictimBy row: the victim's.
	for v, n := range c.stats.VictimBy[owner] {
		if n != before[v] {
			return false, Owner(v)
		}
	}
	return true, OwnerNone
}

// Invalidate drops line if it is resident, the way a coherence invalidation
// does, and reports whether it was. Its set fills the emptied frame before
// it displaces a resident line; the line's word usage, if tracked, retires
// with it.
func (c *ICache) Invalidate(line uint64) bool {
	base := int(line&c.setMask) * c.assoc
	for f := base; f < base+c.assoc; f++ {
		if c.tags[f] == line+1 {
			c.retire(f, c.stats.Accesses)
			c.tags[f] = 0
			return true
		}
	}
	return false
}

// ownerOf is the owner a fetch run's lines are filled for.
func ownerOf(kernel bool) Owner {
	if kernel {
		return OwnerKernel
	}
	return OwnerApp
}

// mruFrame is the frame of the most recently used line of line's set: the
// set's only frame when the cache is direct-mapped.
func (c *ICache) mruFrame(line uint64) int {
	set := line & c.setMask
	if c.mru == nil {
		return int(set)
	}
	return int(c.mru[set])
}

// markWords counts one use of each word of line ln, held in frame, that the
// run [addr, end) fetches.
func (c *ICache) markWords(frame int, ln, addr, end uint64) {
	lineStart := ln << c.lineShift
	w0 := 0
	if addr > lineStart {
		w0 = int(addr-lineStart) / isa.WordBytes
	}
	w1 := c.lineWords - 1
	if lineEnd := (ln + 1) << c.lineShift; end < lineEnd {
		w1 = int(end-lineStart)/isa.WordBytes - 1
	}
	base := frame * c.lineWords
	for w := w0; w <= w1; w++ {
		if c.wordCnt[base+w] != 255 {
			c.wordCnt[base+w]++
		}
	}
}

// lookup is the one replacement policy: it finds line in its set at access
// time now, filling it for owner over the least recently used frame on a
// miss, and returns the frame that holds it and whether it already was the
// set's most recently used line. Such an MRU hit changes no state at all —
// the line stays where it is in the replacement order — which is what lets a
// Family skip it; a direct-mapped hit is always one.
func (c *ICache) lookup(line uint64, owner Owner, now uint64) (frame int, mru bool) {
	set := int(line & c.setMask)
	tag := line + 1
	if c.assoc == 1 {
		if c.tags[set] == tag {
			return set, true
		}
		c.replace(set, line, owner, now)
		return set, false
	}
	if f := int(c.mru[set]); c.tags[f] == tag {
		return f, true
	}
	base := set * c.assoc
	ways := c.tags[base : base+c.assoc]
	for w, t := range ways {
		if t == tag {
			c.lastUse[base+w] = now
			c.mru[set] = uint32(base + w)
			return base + w, false
		}
	}
	victim := base
	for f := base; f < base+c.assoc; f++ {
		switch {
		case c.tags[f] == 0:
			victim = f
		case c.tags[victim] != 0 && c.lastUse[f] < c.lastUse[victim]:
			victim = f
		}
	}
	c.replace(victim, line, owner, now)
	c.lastUse[victim] = now
	c.mru[set] = uint32(victim)
	return victim, false
}

// replace records owner's miss on line and fills frame f with it, retiring
// the line f held.
func (c *ICache) replace(f int, line uint64, owner Owner, now uint64) {
	c.stats.Misses++
	c.stats.MissBy[owner]++
	if c.tags[f] == 0 {
		c.stats.VictimBy[owner][OwnerNone]++
	} else {
		c.stats.VictimBy[owner][c.owner[f]]++
		c.retire(f, now)
	}
	c.tags[f] = line + 1
	c.owner[f] = owner
	c.stats.Fills++
	if c.wordCnt != nil {
		clear(c.wordCnt[f*c.lineWords : (f+1)*c.lineWords])
		c.fillAt[f] = now
		c.stats.FetchedWords += uint64(c.lineWords)
	}
	if c.missCB != nil {
		c.missCB(line<<c.lineShift, owner == OwnerKernel)
	}
}

// retire records replacement-time metrics for a valid frame at time now.
func (c *ICache) retire(f int, now uint64) {
	if c.wordCnt == nil {
		return
	}
	base := f * c.lineWords
	used := 0
	for w := 0; w < c.lineWords; w++ {
		n := c.wordCnt[base+w]
		c.stats.WordReuse.Add(int(n))
		if n > 0 {
			used++
		}
	}
	c.stats.WordsUsed.Add(used)
	c.stats.UsedWordSlots += uint64(used)
	c.stats.Lifetime.Add(now - c.fillAt[f])
}

// Finalize folds still-resident lines into the replacement-time metrics so
// short runs are not biased toward early evictions. Safe to call once at the
// end of a simulation.
func (c *ICache) Finalize() {
	if c.wordCnt == nil {
		return
	}
	for f, tag := range c.tags {
		if tag != 0 {
			c.retire(f, c.stats.Accesses)
			c.tags[f] = 0
		}
	}
}

// Stats returns the accumulated statistics.
func (c *ICache) Stats() *Stats { return &c.stats }
