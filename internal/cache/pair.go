package cache

import (
	"math/bits"

	"codelayout/internal/isa"
)

// Pair is a two-way set-associative instruction cache that reports misses and
// keeps nothing else: no owners, fill times, victims or statistics. It is the
// machine's inline L1I, probed once per fetched run on every CPU, where an
// ICache asked for one number spent most of a sink-less run's cache time on
// bookkeeping nobody read.
//
// A set is its two resident lines, most recently used first. A hit on the
// first changes nothing; a hit on the second swaps them; a miss drops the
// second and puts the new line first. That is exact LRU, so a Pair misses on
// exactly the runs an ICache of the same geometry misses on.
//
// Most runs lie in one line that is already first in its set. Hit answers
// that case inline, and a caller asks Misses only for the rest.
type Pair struct {
	lineShift uint
	setMask   uint64
	sets      [][2]uint64 // line number + 1; 0 = invalid
}

// NewPair creates a two-way cache of sizeBytes with lineBytes lines. It
// panics on a geometry Config.Validate rejects.
func NewPair(sizeBytes, lineBytes int) *Pair {
	if err := (Config{SizeBytes: sizeBytes, LineBytes: lineBytes, Assoc: 2}).Validate(); err != nil {
		panic(err)
	}
	numSets := sizeBytes / (lineBytes * 2)
	return &Pair{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(numSets - 1),
		sets:      make([][2]uint64, numSets),
	}
}

// Hit reports whether the run of words words at addr lies in one line that is
// its set's most recently used, the one case in which Misses would return 0
// and change nothing. It is small enough to inline, so a walk that calls
// Misses only when Hit is false pays no call on most runs; a fast path inside
// Misses would not inline with its slow path beside it.
func (c *Pair) Hit(addr uint64, words int32) bool {
	ln := addr >> c.lineShift
	return (addr+uint64(words)*isa.WordBytes-1)>>c.lineShift == ln && c.sets[ln&c.setMask][0] == ln+1
}

// Misses fetches the run of words words at addr and returns how many of the
// lines it covers were not resident.
func (c *Pair) Misses(addr uint64, words int32) (misses int) {
	last := (addr + uint64(words)*isa.WordBytes - 1) >> c.lineShift
	for ln := addr >> c.lineShift; ln <= last; ln++ {
		s := &c.sets[ln&c.setMask]
		tag := ln + 1
		if s[0] == tag {
			continue
		}
		if s[1] != tag {
			misses++
		}
		s[0], s[1] = tag, s[0]
	}
	return misses
}
