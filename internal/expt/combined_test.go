package expt

import "testing"

func TestCyclesMonotonicInMisses(t *testing.T) {
	base := cycleCounts{instructions: 1_000_000, l1iMisses: 10_000}
	more := base
	more.l1iMisses *= 2
	if alpha21264.cycles(more) <= alpha21264.cycles(base) {
		t.Fatal("more misses must cost more cycles")
	}
}

// TestCyclesFloorIsInstructions: with no misses every platform charges one
// cycle per instruction.
func TestCyclesFloorIsInstructions(t *testing.T) {
	c := cycleCounts{instructions: 5000}
	for _, p := range []platform{alpha21264, alpha21164, alpha21364Sim} {
		if got := p.cycles(c); got != c.instructions {
			t.Fatalf("%s: %d cycles for %d instructions and no misses", p.name, got, c.instructions)
		}
	}
}

func TestRelative(t *testing.T) {
	base := cycleCounts{instructions: 1_000_000, l1iMisses: 100_000}
	opt := cycleCounts{instructions: 950_000, l1iMisses: 40_000}
	rel := alpha21364Sim.relative(opt, base)
	if rel >= 1 {
		t.Fatalf("relative = %f, optimization should speed up", rel)
	}
	if rel <= 0.3 {
		t.Fatalf("relative = %f, implausibly fast", rel)
	}
	if alpha21364Sim.relative(base, base) != 1.0 {
		t.Fatal("self-relative must be 1")
	}
}

func TestZeroBase(t *testing.T) {
	if alpha21164.relative(cycleCounts{}, cycleCounts{}) != 0 {
		t.Fatal("zero base should yield 0")
	}
}
