package core

import (
	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// CFAOptions configures the conflict-free-area optimization: the hottest
// units are packed into a reserved prefix of the instruction cache's address
// mapping, and all other executed code is placed so it never maps into the
// reserved sets (by inserting address-space gaps). The paper implemented
// this software-trace-cache style optimization but found that OLTP's hot
// traces are too large to fit a reasonable reserved area, so it yielded no
// gains — a negative result this implementation reproduces.
type CFAOptions struct {
	// CacheBytes is the target instruction cache size. The program text
	// base must be a multiple of it for the set mapping to hold.
	CacheBytes int
	// ReservedBytes is the size of the conflict-free area (must be less
	// than CacheBytes).
	ReservedBytes int
}

// planCFA computes explicit gaps so that hot units beyond the reserved-area
// budget never map into the reserved cache sets. It mirrors Materialize's
// address arithmetic (gap first, then alignment) so the planned and final
// addresses agree. It returns the gap map and the number of reserved-area
// words actually used by hot traces.
func planCFA(p *program.Program, units []Unit, unitOrder []int, o CFAOptions) (map[program.BlockID]uint64, int64) {
	gaps := make(map[program.BlockID]uint64)
	if o.CacheBytes <= 0 || o.ReservedBytes <= 0 || o.ReservedBytes >= o.CacheBytes {
		return gaps, 0
	}
	// Units are planned at the default alignment, whatever the pipeline
	// materializes with (ROADMAP item 11(a)).
	align := uint64(program.DefaultAlignWords) * isa.WordBytes
	cache := uint64(o.CacheBytes)
	reserved := roundUp(uint64(o.ReservedBytes), align)

	addr := uint64(0) // offset from (cache-aligned) text base
	var reservedWords int64
	inReserved := true
	for _, ui := range unitOrder {
		u := units[ui]
		if len(u.Blocks) == 0 {
			continue
		}
		bytes := uint64(unitWords(p, u)) * isa.WordBytes
		aligned := roundUp(addr, align)

		if inReserved {
			if u.Hot && aligned+bytes <= reserved {
				addr = aligned + bytes
				reservedWords += int64(bytes / isa.WordBytes)
				continue
			}
			inReserved = false
		}
		if !u.Hot {
			// Never-executed code cannot conflict with the reserved area.
			addr = aligned + bytes
			continue
		}
		target := aligned
		off := target % cache
		switch {
		case off < reserved:
			target += reserved - off
		case off+bytes > cache && bytes <= cache-reserved:
			// The unit would wrap into the next frame's reserved window;
			// start it just past that window instead.
			target += cache - off + reserved
		}
		// Units larger than cache-reserved inevitably overlap the reserved
		// sets; they are placed at the earliest legal start and simply
		// conflict, as the paper observed for OLTP's oversized traces.
		if target > aligned {
			gaps[u.Blocks[0]] = target - addr
		}
		addr = target + bytes
	}
	return gaps, reservedWords
}

func roundUp(x, to uint64) uint64 {
	if rem := x % to; rem != 0 {
		return x + to - rem
	}
	return x
}
