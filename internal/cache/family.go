package cache

import (
	"fmt"
	"sort"

	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

// Family simulates caches that observe one fetch stream and differ only in
// size — one line of a size sweep — in one walk per fetched line. The members
// share the access clock, and the walk visits them smallest first and stops
// at the first where the line already is the most recently used of its set:
//
//   - A larger member's sets refine a smaller one's (same line size and ways,
//     power-of-two set counts), so the lines of a large set all map to one
//     small set. If the line was the last one touched in its small set it was
//     the last one touched in its large set too: resident there, and MRU.
//   - An MRU hit changes no replacement state (see lookup), so skipping it
//     leaves every member exactly where an independent ICache would be.
//
// Every Stats field of every member therefore equals what separate ICaches
// over the same stream produce. Members that track word usage need the frame
// and are visited for every line; after the walk the line is MRU in each of
// them, so the frame is their mruFrame.
//
// Most fetched lines already are the MRU of their set in the smallest member.
// FetchWords probes that member's MRU tag inline, before any call, and such a
// line skips the walk altogether.
type Family struct {
	members   []*ICache // in configured order
	walk      []*ICache // smallest first
	words     []*ICache // the members with WordStats
	lineShift uint
	accesses  uint64
}

// NewFamily creates the caches cfgs describe as one family. They must agree
// on line size and associativity and differ in size.
func NewFamily(cfgs ...Config) (*Family, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: a family needs at least one member")
	}
	f := &Family{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.LineBytes != cfgs[0].LineBytes || cfg.Assoc != cfgs[0].Assoc {
			return nil, fmt.Errorf("cache: %s and %s differ in more than size; they are not one family", cfgs[0], cfg)
		}
		for _, other := range cfgs[:i] {
			if other.SizeBytes == cfg.SizeBytes {
				return nil, fmt.Errorf("cache: size %d bytes listed twice", cfg.SizeBytes)
			}
		}
		m := New(cfg)
		f.members = append(f.members, m)
		if cfg.WordStats {
			f.words = append(f.words, m)
		}
	}
	f.lineShift = f.members[0].lineShift
	f.walk = append(f.walk, f.members...)
	sort.Slice(f.walk, func(i, j int) bool { return f.walk[i].cfg.SizeBytes < f.walk[j].cfg.SizeBytes })
	return f, nil
}

// Fetch implements trace.Sink.
func (f *Family) Fetch(r trace.FetchRun) { f.FetchWords(r.Addr, r.Words, r.Kernel) }

// FetchWords is Fetch on the run's bare coordinates.
func (f *Family) FetchWords(addr uint64, words int32, kernel bool) {
	end := addr + uint64(words)*isa.WordBytes
	owner := ownerOf(kernel)
	small := f.walk[0]
	tags, mru, setMask := small.tags, small.mru, small.setMask
	now := f.accesses
	for ln, last := addr>>f.lineShift, (end-1)>>f.lineShift; ln <= last; ln++ {
		now++
		frame := ln & setMask
		if mru != nil {
			frame = uint64(mru[frame])
		}
		if tags[frame] != ln+1 {
			for _, m := range f.walk {
				if _, hit := m.lookup(ln, owner, now); hit {
					break
				}
			}
		}
		for _, m := range f.words {
			m.markWords(m.mruFrame(ln), ln, addr, end)
		}
	}
	f.accesses = now
}

// Reset is ICache.Reset for every member, and restarts the shared clock: f
// is then equal to what NewFamily returns for its configs.
func (f *Family) Reset() {
	for _, m := range f.members {
		m.Reset()
	}
	f.accesses = 0
}

// Finalize is ICache.Finalize for every member.
func (f *Family) Finalize() {
	for _, m := range f.members {
		m.stats.Accesses = f.accesses
		m.Finalize()
	}
}

// Stats returns the members' statistics, in the order they were configured.
func (f *Family) Stats() []*Stats {
	out := make([]*Stats, len(f.members))
	for i, m := range f.members {
		m.stats.Accesses = f.accesses
		out[i] = &m.stats
	}
	return out
}
