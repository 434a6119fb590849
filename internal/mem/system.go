// Package mem models the memory system below the L1 instruction cache: the
// per-CPU data cache, the unified second-level cache (instructions + data,
// the subject of Figure 14), and a minimal invalidation-based sharing model
// that produces the data communication misses which dilute code-layout gains
// on multiprocessor runs (Section 5). Both caches are cache.ICaches, driven
// one line at a time.
package mem

import (
	"fmt"
	"math/bits"

	"codelayout/internal/cache"
	"codelayout/internal/trace"
)

// Kind classifies second-level cache lines. A Kind is the cache.Owner its
// lines are filled for in the L2: instruction lines take the first owner
// slot, data lines the second.
type Kind uint8

const (
	// KindInstr marks instruction lines.
	KindInstr Kind = iota
	// KindData marks data lines.
	KindData
)

// Config describes the memory system below L1I.
type Config struct {
	CPUs int

	L1DSizeBytes int // per CPU
	L1DLineBytes int
	L1DAssoc     int

	L2SizeBytes int // per CPU (board cache)
	L2LineBytes int
	L2Assoc     int
}

// DefaultConfig is the paper's base SimOS configuration: 64KB 2-way L1D with
// 64-byte lines and a 1.5MB 6-way unified L2.
func DefaultConfig(cpus int) Config {
	return Config{
		CPUs:         cpus,
		L1DSizeBytes: 64 << 10,
		L1DLineBytes: 64,
		L1DAssoc:     2,
		L2SizeBytes:  1536 << 10,
		L2LineBytes:  64,
		L2Assoc:      6,
	}
}

// Stats accumulates memory-system results across all CPUs.
type Stats struct {
	L1DAccesses uint64
	L1DMisses   uint64

	L2Accesses   [2]uint64    // by Kind
	L2Misses     [2]uint64    // by Kind
	L2EvictCross [2][2]uint64 // [filler kind][victim kind]: the L2s' VictimBy

	// CommRead/CommWrite count data-line transfers caused by sharing across
	// CPUs (the "communication misses" that grow with processor count).
	CommRead      uint64
	CommWrite     uint64
	Invalidations uint64
}

// System is the per-machine memory hierarchy below the instruction caches.
type System struct {
	cfg Config
	l1d []*cache.ICache
	l2  []*cache.ICache
	// l1dShift and l2Shift turn an address into its line number.
	l1dShift, l2Shift uint
	// writer tracks, per 64-byte data line, the CPU that last wrote it
	// (+1; 0 = never written); share tracks which CPUs have fetched it
	// since the last invalidation. Together they form a minimal
	// memory-side directory for classifying communication misses and for
	// invalidating remote copies on writes. Both grow with the lines a run
	// touches and are not presized: a figure measurement builds a system
	// per group, and sizing each for 64 K lines doubled what it allocated.
	writer map[uint64]uint8
	share  map[uint64]uint64
	Stats  Stats
}

// dirShift is the directory grain (64-byte lines).
const dirShift = 6

// NewSystem creates the memory system. It panics on a cache geometry
// cache.Config.Validate rejects.
func NewSystem(cfg Config) *System {
	l1d := cache.Config{SizeBytes: cfg.L1DSizeBytes, LineBytes: cfg.L1DLineBytes, Assoc: cfg.L1DAssoc}
	l2 := cache.Config{SizeBytes: cfg.L2SizeBytes, LineBytes: cfg.L2LineBytes, Assoc: cfg.L2Assoc}
	s := &System{
		cfg:      cfg,
		l1dShift: uint(bits.TrailingZeros(uint(cfg.L1DLineBytes))),
		l2Shift:  uint(bits.TrailingZeros(uint(cfg.L2LineBytes))),
		writer:   make(map[uint64]uint8),
		share:    make(map[uint64]uint64),
	}
	for i := 0; i < cfg.CPUs; i++ {
		s.l1d = append(s.l1d, cache.New(l1d))
		s.l2 = append(s.l2, cache.New(l2))
	}
	return s
}

// FetchMiss feeds an L1 instruction-cache miss into the unified L2 of the
// given CPU. Wire it as the ICache miss callback.
func (s *System) FetchMiss(lineAddr uint64, cpu int) {
	s.checkCPU(cpu)
	s.l2Access(cpu, lineAddr, KindInstr)
}

// Data implements trace.DataSink: the reference walks L1D lines; L1D misses
// go to the unified L2; writes maintain the sharing directory.
func (s *System) Data(r trace.DataRef) {
	cpu := int(r.CPU)
	s.checkCPU(cpu)
	for ln, last := r.Addr>>s.l1dShift, (r.Addr+uint64(r.Bytes)-1)>>s.l1dShift; ln <= last; ln++ {
		addr := ln << s.l1dShift
		if r.Write {
			s.write(cpu, addr)
		}
		s.Stats.L1DAccesses++
		if hit, _ := s.l1d[cpu].Access(ln, cache.OwnerApp); hit {
			continue
		}
		s.Stats.L1DMisses++
		s.share[addr>>dirShift] |= 1 << uint(cpu)
		s.l2Access(cpu, addr, KindData)
	}
}

// checkCPU panics on a reference from a CPU the system does not have: the
// caller sized the system for another machine, and folding the reference
// into some other CPU's caches would only hide that.
func (s *System) checkCPU(cpu int) {
	if cpu < 0 || cpu >= s.cfg.CPUs {
		panic(fmt.Sprintf("mem: reference from cpu %d in a %d-cpu system", cpu, s.cfg.CPUs))
	}
}

// write updates the sharing directory: a store to a line cached by any other
// CPU invalidates the remote copies, forcing the communication misses a real
// invalidation protocol would produce.
func (s *System) write(cpu int, lineAddr uint64) {
	ln := lineAddr >> dirShift
	self := uint64(1) << uint(cpu)
	others := s.share[ln] &^ self
	prev := s.writer[ln]
	if others == 0 && prev == uint8(cpu)+1 {
		return // already exclusively owned
	}
	s.writer[ln] = uint8(cpu) + 1
	s.share[ln] = self
	if others == 0 {
		if prev != 0 && prev != uint8(cpu)+1 {
			s.Stats.CommWrite++ // ownership transfer of an uncached dirty line
		}
		return
	}
	s.Stats.CommWrite++
	for c := 0; c < s.cfg.CPUs; c++ {
		if c == cpu || others&(1<<uint(c)) == 0 {
			continue
		}
		inL1 := s.l1d[c].Invalidate(lineAddr >> s.l1dShift)
		if inL2 := s.l2[c].Invalidate(lineAddr >> s.l2Shift); inL1 || inL2 {
			s.Stats.Invalidations++
		}
	}
}

func (s *System) l2Access(cpu int, addr uint64, kind Kind) {
	s.Stats.L2Accesses[kind]++
	hit, victim := s.l2[cpu].Access(addr>>s.l2Shift, cache.Owner(kind))
	if hit {
		return
	}
	s.Stats.L2Misses[kind]++
	if victim != cache.OwnerNone {
		s.Stats.L2EvictCross[kind][victim]++
	}
	if kind == KindData {
		if w := s.writer[addr>>dirShift]; w != 0 && int(w-1) != cpu {
			s.Stats.CommRead++
		}
	}
}
