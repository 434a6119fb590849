package codegen

import (
	"math/rand"
	"sync"
)

// walkRand is math/rand's default source and the two rand.Rand methods the
// walk draws with, as a concrete type: it returns exactly the numbers
// rand.New(rand.NewSource(seed)) returns, but the common draw
// (float64Fast) inlines into the caller instead of calling through the
// rand.Source interface.
//
// The source is the additive lagged-Fibonacci generator
// x[n] = x[n-607] + x[n-273] mod 2^64. The ring holds the last 607 values
// and hands them out in order; when it is spent, refill replaces all of them
// with the next 607. The first 607 come from math/rand's own seeding, so its
// seeding stays the only definition of what a seed means.
type walkRand struct {
	ring  [rngLen]uint64
	next  uint32 // index in ring of the next value to hand out
	fills uint64 // refills since seed; with next, the count of draws
}

const (
	rngLen  = 607 // the long lag
	rngTap  = 273 // the short lag
	rngMask = 1<<63 - 1
)

// seeders holds math/rand sources for seed to reseed, so that seeding an
// emitter allocates no source of its own.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// seed restarts the generator at the first draw rand.NewSource(seed) makes.
func (r *walkRand) seed(seed int64) {
	src := seeders.Get().(rand.Source64)
	src.Seed(seed)
	for i := range r.ring {
		r.ring[i] = src.Uint64()
	}
	seeders.Put(src)
	r.next, r.fills = 0, 0
}

// refill replaces the ring's values x[n..n+606] with the next 607 in place.
// Slot i becomes x[n+607+i] = x[n+i] + x[n+334+i]; the second term is still
// in the old ring at i+334 for i < 273 and already in the new ring at i-273
// after it, so two loops need no modulo.
func (r *walkRand) refill() {
	x := &r.ring
	for i := 0; i < rngTap; i++ {
		x[i] += x[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		x[i] += x[i-rngTap]
	}
	r.next = 0
	r.fills++
}

// Int63 is rand.Rand.Int63.
func (r *walkRand) Int63() int64 {
	i := r.next
	if i >= rngLen {
		r.refill()
		i = 0
	}
	r.next = i + 1
	return int64(r.ring[i] & rngMask)
}

// Float64 is rand.Rand.Float64, rejection of 1 included.
func (r *walkRand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// float64Fast is Float64's common case, small enough to inline where a call
// to Float64 would not: the next value, if the ring still holds one and it is
// not a rejected 1. When ok is false it has drawn nothing, and the caller
// draws with Float64.
func (r *walkRand) float64Fast() (f float64, ok bool) {
	if i := r.next; i < rngLen {
		if f = float64(r.ring[i]&rngMask) / (1 << 63); f != 1 {
			r.next = i + 1
			return f, true
		}
	}
	return 0, false
}

// Int63n is rand.Rand.Int63n: a mask for a power of two, otherwise the
// rejection of the top partial range and the remainder. It panics if n <= 0.
func (r *walkRand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}
