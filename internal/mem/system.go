package mem

import (
	"fmt"

	"codelayout/internal/trace"
)

// Kind classifies second-level cache lines.
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
	L2EvictCross [2][2]uint64 // [filler kind][victim kind]

	// CommRead/CommWrite count data-line transfers caused by sharing across
	// CPUs (the "communication misses" that grow with processor count).
	CommRead      uint64
	CommWrite     uint64
	Invalidations uint64
}

// System is the per-machine memory hierarchy below the instruction caches.
type System struct {
	cfg Config
	l1d []*assoc
	l2  []*assoc
	// writer tracks, per 64-byte data line, the CPU that last wrote it
	// (+1; 0 = never written); share tracks which CPUs have fetched it
	// since the last invalidation. Together they form a minimal
	// memory-side directory for classifying communication misses and for
	// invalidating remote copies on writes.
	writer map[uint64]uint8
	share  map[uint64]uint64
	Stats  Stats
}

// dirShift is the directory grain (64-byte lines).
const dirShift = 6

// NewSystem creates the memory system.
func NewSystem(cfg Config) *System {
	s := &System{
		cfg:    cfg,
		writer: make(map[uint64]uint8, 1<<16),
		share:  make(map[uint64]uint64, 1<<16),
	}
	for i := 0; i < cfg.CPUs; i++ {
		s.l1d = append(s.l1d, newAssoc(cfg.L1DSizeBytes, cfg.L1DLineBytes, cfg.L1DAssoc))
		s.l2 = append(s.l2, newAssoc(cfg.L2SizeBytes, cfg.L2LineBytes, cfg.L2Assoc))
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
	l1 := s.l1d[cpu]
	first := l1.lineOf(r.Addr)
	last := l1.lineOf(r.Addr + uint64(r.Bytes) - 1)
	for ln := first; ln <= last; ln++ {
		addr := ln << l1.lineShift
		if r.Write {
			s.write(cpu, addr)
		}
		s.Stats.L1DAccesses++
		hit, _, _ := l1.access(ln, 0)
		if hit {
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
		inv := false
		if s.l1d[c].invalidate(s.l1d[c].lineOf(lineAddr)) {
			inv = true
		}
		if s.l2[c].invalidate(s.l2[c].lineOf(lineAddr)) {
			inv = true
		}
		if inv {
			s.Stats.Invalidations++
		}
	}
}

func (s *System) l2Access(cpu int, addr uint64, kind Kind) {
	l2 := s.l2[cpu]
	ln := l2.lineOf(addr)
	s.Stats.L2Accesses[kind]++
	hit, victimMeta, hadVictim := l2.access(ln, uint8(kind))
	if hit {
		return
	}
	s.Stats.L2Misses[kind]++
	if hadVictim {
		s.Stats.L2EvictCross[kind][victimMeta]++
	}
	if kind == KindData {
		if w := s.writer[addr>>6]; w != 0 && int(w-1) != cpu {
			s.Stats.CommRead++
		}
	}
}
