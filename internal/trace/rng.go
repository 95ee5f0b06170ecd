package trace

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// rng reproduces the value stream of rand.New(rand.NewSource(seed))
// draw for draw, without an interface call or a division per draw.
//
// math/rand's source is an additive lagged-Fibonacci generator: its
// output n is output n-607 plus output n-273, mod 2^64. So the first
// 607 outputs after a seed determine all the rest. Seed draws them
// from a math/rand source, kept for later re-seeds, and refill then
// runs the recurrence over the 607-word block in place. The Int63,
// Int31, Int63n and Float64 methods apply math/rand's rules to that
// stream, and intn draws Intn through a precomputed bound.
type rng struct {
	src rand.Source64 // seeds vec; re-seeded in place
	// vec holds one block of rngLen outputs, last first: the next
	// output is vec[left-1]. Counting down to zero keeps next small
	// enough for the compiler to inline.
	vec  [rngLen]uint64
	left int // outputs not yet drawn from vec
}

const (
	rngLen = 607 // lag of the recurrence: the block length
	rngTap = 273 // short lag
)

// Seed restarts the stream at the start of rand.NewSource(seed)'s.
func (r *rng) Seed(seed int64) {
	if r.src == nil {
		r.src = rand.NewSource(seed).(rand.Source64)
	} else {
		r.src.Seed(seed)
	}
	for i := rngLen - 1; i >= 0; i-- {
		r.vec[i] = r.src.Uint64()
	}
	r.left = rngLen
}

// refill replaces the block with the next rngLen outputs. With output
// k of the block at vec[rngLen-1-k], output k is old output k plus
// output k-rngTap, which is new for k >= rngTap and old output
// k-rngTap+rngLen below that.
func (r *rng) refill() {
	v := &r.vec
	for i := rngLen - 1; i >= rngLen-rngTap; i-- {
		v[i] += v[i-(rngLen-rngTap)]
	}
	for i := rngLen - rngTap - 1; i >= 0; i-- {
		v[i] += v[i+rngTap]
	}
	r.left = rngLen
}

// next returns the next raw output.
func (r *rng) next() uint64 {
	if r.left == 0 {
		r.refill()
	}
	r.left--
	return r.vec[r.left]
}

// Int63 is rand.Rand.Int63.
func (r *rng) Int63() int64 { return int64(r.next() &^ (1 << 63)) }

// Int31 is rand.Rand.Int31: Int63 >> 32.
func (r *rng) Int31() int32 { return int32(r.next() >> 32 & (1<<31 - 1)) }

// Int63n is rand.Rand.Int63n.
func (r *rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Float64 is rand.Rand.Float64, including its redraw of a result that
// rounds to 1.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// bound is rand.Rand.Intn(n) for one n in [1, 2^31-1], precomputed:
// Int31n's rejection threshold, and m = ceil(2^64/n), so that v % n is
// the high word of (m*v mod 2^64) * n. That identity is exact for every
// 32-bit v and n (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). For a power of two the threshold rejects
// nothing and the product keeps v's low bits: Int31n's mask.
type bound struct {
	n, m uint64
	max  int32
}

func newBound(n int) bound {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("trace: bound %d outside [1, 2^31-1]", n))
	}
	return bound{
		n:   uint64(n),
		m:   ^uint64(0)/uint64(n) + 1,
		max: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
	}
}

// intn is rand.Rand.Intn(b's n).
func (r *rng) intn(b bound) int {
	for {
		// Int31, spelled out: Int31 itself is too large to inline.
		if v := int32(r.next() >> 32 & (1<<31 - 1)); v <= b.max {
			hi, _ := bits.Mul64(b.m*uint64(v), b.n)
			return int(hi)
		}
	}
}
