package codegen

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// draws reports how many values the generator handed out since seed: the
// walk oracle's draw count for the emitter, read off the ring rather than
// counted in the walk.
func (r *walkRand) draws() uint64 { return r.fills*rngLen + uint64(r.next) }

// rngBounds are the Int63n bounds the generator tests draw with: powers of two
// (the mask), small bounds (one rejection in 2^60 or so) and bounds above 2^62,
// where rejection takes up to half the draws.
var rngBounds = []int64{1, 2, 1 << 10, 1 << 62, 3, 7, 100, 1000003, 1<<62 + 1, 3 << 61, 1<<63 - 1, 1<<63 - 2}

// drawBoth makes the same draw from the generator and from math/rand and
// fails the test if they differ. op picks the method: 0 Float64, 1 the
// emitter's float64Fast-then-Float64, 2 Int63, 3 Int63n(rngBounds[k]).
func drawBoth(t testing.TB, r *walkRand, want *rand.Rand, op, k, i int) {
	t.Helper()
	switch op {
	case 0:
		if g, w := r.Float64(), want.Float64(); g != w {
			t.Fatalf("draw %d: Float64 = %v, math/rand %v", i, g, w)
		}
	case 1:
		g, ok := r.float64Fast()
		if !ok {
			g = r.Float64()
		}
		if w := want.Float64(); g != w {
			t.Fatalf("draw %d: float64Fast/Float64 = %v, math/rand %v", i, g, w)
		}
	case 2:
		if g, w := r.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: Int63 = %d, math/rand %d", i, g, w)
		}
	default:
		n := rngBounds[k%len(rngBounds)]
		if g, w := r.Int63n(n), want.Int63n(n); g != w {
			t.Fatalf("draw %d: Int63n(%d) = %d, math/rand %d", i, n, g, w)
		}
	}
}

// TestWalkRandMatchesMathRand: seeded alike, the walk's generator and
// rand.New(rand.NewSource(seed)) return the same values through several
// refills of the ring, under every mix of the methods the walk and the
// tests use, and the generator counts the source draws math/rand made.
func TestWalkRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, -1, -7919, 2001, 1 << 40} {
		var r walkRand
		r.seed(seed)
		src := &countingSource{Source: rand.NewSource(seed)}
		want := rand.New(src)
		mix := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 20_000; i++ {
			drawBoth(t, &r, want, mix.Intn(4), mix.Intn(len(rngBounds)), i)
		}
		if got := r.draws(); got != uint64(src.draws) {
			t.Fatalf("seed %d: the generator counts %d draws, math/rand made %d", seed, got, src.draws)
		}
		if r.fills < 3 {
			t.Fatalf("seed %d: %d refills; the test must cover at least 3", seed, r.fills)
		}
	}
}

// scriptSource returns the values it holds, in order.
type scriptSource []int64

func (s *scriptSource) Int63() (x int64) { x, *s = (*s)[0], (*s)[1:]; return x }
func (s *scriptSource) Seed(int64)       {}

// TestWalkRandRejectsOne: a value that rounds to 1.0 is skipped by Float64 as
// math/rand skips it, and float64Fast leaves it in the ring for Float64.
func TestWalkRandRejectsOne(t *testing.T) {
	var r walkRand
	r.seed(1)
	r.ring[0], r.ring[1], r.ring[2] = ^uint64(0), 1<<63-512, 5 // the top bit is masked off
	want := rand.New(&scriptSource{1<<63 - 1, 1<<63 - 512, 5})
	if _, ok := r.float64Fast(); ok || r.next != 0 {
		t.Fatalf("float64Fast took a value that rounds to 1 (next %d)", r.next)
	}
	if g, w := r.Float64(), want.Float64(); g != w || g != 5.0/(1<<63) {
		t.Fatalf("Float64 = %v, math/rand %v, want 5/2^63", g, w)
	}
	if r.draws() != 3 {
		t.Fatalf("Float64 drew %d values, want 3", r.draws())
	}
}

// FuzzWalkRand draws the seed from the first eight bytes and the draws from
// the rest, a byte each: its low two bits pick the method, the next two the
// bound, the top four repeat it up to 601 times so short inputs still cross
// refills of the ring.
func FuzzWalkRand(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0xf1, 0xf2, 0xf3, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb, 0xf7, 0x03, 0x0f})
	f.Add([]byte{0xd1, 0x07, 0, 0, 0, 0, 0, 0, 0x3e, 0xf1, 0xf1, 0xf1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := int64(binary.LittleEndian.Uint64(data))
		var r walkRand
		r.seed(seed)
		src := &countingSource{Source: rand.NewSource(seed)}
		want := rand.New(src)
		i := 0
		for _, b := range data[8:] {
			for n := 1 + int(b>>4)*40; n > 0; n-- {
				drawBoth(t, &r, want, int(b&3), int(b>>2&3)*3+n%3, i)
				i++
			}
		}
		if got := r.draws(); got != uint64(src.draws) {
			t.Fatalf("seed %d: the generator counts %d draws, math/rand made %d", seed, got, src.draws)
		}
	})
}
