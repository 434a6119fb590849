package mem

import (
	"math/rand"
	"testing"
)

// refAssoc is the reference assoc is checked against: a map from set to the
// lines resident in it, least recently used first, each with its metadata.
type refAssoc struct {
	sets, ways int
	lines      map[uint64][]refLine
}

type refLine struct {
	line uint64
	meta uint8
}

func (a *refAssoc) access(line uint64, fillMeta uint8) (hit bool, meta uint8, hadVictim bool) {
	key := line % uint64(a.sets)
	set := a.lines[key]
	for i, l := range set {
		if l.line == line {
			a.lines[key] = append(append(set[:i:i], set[i+1:]...), l)
			return true, l.meta, false
		}
	}
	if len(set) == a.ways {
		meta, hadVictim = set[0].meta, true
		set = set[1:]
	}
	a.lines[key] = append(set, refLine{line, fillMeta})
	return false, meta, hadVictim
}

func (a *refAssoc) invalidate(line uint64) bool {
	key := line % uint64(a.sets)
	for i, l := range a.lines[key] {
		if l.line == line {
			a.lines[key] = append(a.lines[key][:i:i], a.lines[key][i+1:]...)
			return true
		}
	}
	return false
}

// TestAssocMatchesReference drives assoc and the reference with random line
// accesses and invalidations over the shapes the memory systems use
// (direct-mapped, 2-way, 6-way) and requires every return value to agree:
// hit or miss, the hit line's metadata, and on a miss whether a valid line
// was displaced and the metadata it was filled with. A miss that lands in an
// invalid frame reports no victim, so its metadata value is not compared.
func TestAssocMatchesReference(t *testing.T) {
	for _, c := range []struct{ size, line, ways int }{
		{1 << 10, 32, 1}, {2 << 10, 64, 2}, {3 << 10, 64, 6}, {4 << 10, 128, 4},
	} {
		rng := rand.New(rand.NewSource(int64(c.size + c.ways)))
		a := newAssoc(c.size, c.line, c.ways)
		sets := c.size / c.line / c.ways
		ref := &refAssoc{sets: sets, ways: c.ways, lines: make(map[uint64][]refLine)}
		span := int64(4 * sets * c.ways)
		var hits, victims, invalidated int
		for i := 0; i < 50_000; i++ {
			line := a.lineOf(uint64(rng.Int63n(span)) * uint64(c.line))
			if rng.Intn(8) == 0 {
				got, want := a.invalidate(line), ref.invalidate(line)
				if got != want {
					t.Fatalf("%+v step %d: invalidate(%d) = %t, reference %t", c, i, line, got, want)
				}
				if got {
					invalidated++
				}
				continue
			}
			fill := uint8(rng.Intn(4))
			hit, meta, had := a.access(line, fill)
			rhit, rmeta, rhad := ref.access(line, fill)
			if hit != rhit || had != rhad || (hit || had) && meta != rmeta {
				t.Fatalf("%+v step %d: access(%d) = (%t, %d, %t), reference (%t, %d, %t)", c, i, line, hit, meta, had, rhit, rmeta, rhad)
			}
			if hit {
				hits++
			}
			if had {
				victims++
			}
		}
		if hits == 0 || victims == 0 || invalidated == 0 {
			t.Errorf("%+v: %d hits, %d victims, %d invalidations; the stream does not exercise every path", c, hits, victims, invalidated)
		}
	}
}
