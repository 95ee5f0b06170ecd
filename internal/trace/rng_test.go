package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rngSeeds covers the seeding edge cases of math/rand: zero (which it
// replaces with a fixed seed), negatives, and values at and above
// 2^31-1 (which it reduces mod 2^31-1).
var rngSeeds = []int64{
	0, 1, 42, -1, -7919, math.MinInt64, math.MaxInt32 - 1, math.MaxInt32,
	math.MaxInt32 + 1, 2 * math.MaxInt32, math.MaxInt64,
}

// rngBounds is every bound from 1 to 64, 2^k-1, 2^k and 2^k+1 up to
// 2^31-1, and bounds whose rejection threshold rejects often.
func rngBounds() []int {
	var ns []int
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	for k := 7; k <= 30; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return append(ns, 1<<30+1<<29, 1<<30+3, math.MaxInt32-1, math.MaxInt32)
}

func newRNG(seed int64) *rng {
	r := &rng{}
	r.Seed(seed)
	return r
}

// TestRNGMatchesMathRand checks the rng against math/rand draw for draw,
// for long enough to cross several block refills.
func TestRNGMatchesMathRand(t *testing.T) {
	const draws = 3 * rngLen
	for _, seed := range rngSeeds {
		t.Run(fmt.Sprintf("seed%d/Int63", seed), func(t *testing.T) {
			r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
			for i := range 5 * rngLen {
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
				}
			}
		})
		t.Run(fmt.Sprintf("seed%d/Int31", seed), func(t *testing.T) {
			r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
			for i := range draws {
				if got, want := r.Int31(), ref.Int31(); got != want {
					t.Fatalf("seed %d draw %d: Int31 %d, math/rand %d", seed, i, got, want)
				}
			}
		})
		t.Run(fmt.Sprintf("seed%d/Float64", seed), func(t *testing.T) {
			r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
			for i := range draws {
				if got, want := r.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, got, want)
				}
			}
		})
		t.Run(fmt.Sprintf("seed%d/intn", seed), func(t *testing.T) {
			r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
			for _, n := range rngBounds() {
				b := newBound(n)
				for i := range 50 {
					if got, want := r.intn(b), ref.Intn(n); got != want {
						t.Fatalf("seed %d bound %d draw %d: intn %d, math/rand %d", seed, n, i, got, want)
					}
				}
			}
		})
		t.Run(fmt.Sprintf("seed%d/Int63n", seed), func(t *testing.T) {
			r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
			ns := []int64{1, 2, 3, 1 << 20, 3 << 20, 1<<31 - 1, 1 << 31, 1<<31 + 1,
				1 << 40, 5<<40 + 3, 1<<62 + 1, 3 << 61, math.MaxInt64 - 1, math.MaxInt64}
			for _, n := range ns {
				for i := range 50 {
					if got, want := r.Int63n(n), ref.Int63n(n); got != want {
						t.Fatalf("seed %d Int63n(%d) draw %d: %d, math/rand %d", seed, n, i, got, want)
					}
				}
			}
		})
	}
}

// TestRNGReseedMidBlock re-seeds both generators part-way through a
// block and after a refill, and checks that the streams restart alike.
func TestRNGReseedMidBlock(t *testing.T) {
	r, ref := newRNG(7), rand.New(rand.NewSource(7))
	for step, seed := range []int64{99, -3, 0, 7} {
		for i := range rngLen/2 + 101*step {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("step %d draw %d: %d, math/rand %d", step, i, got, want)
			}
		}
		r.Seed(seed)
		ref.Seed(seed)
	}
	for i := range 2 * rngLen {
		if got, want := r.Int63(), ref.Int63(); got != want {
			t.Fatalf("after re-seeds, draw %d: %d, math/rand %d", i, got, want)
		}
	}
}

// TestRNGReseedDoesNotAllocate pins Mixed's per-phase re-seed at zero
// allocations.
func TestRNGReseedDoesNotAllocate(t *testing.T) {
	r := newRNG(1)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; r.Seed(seed) }); n != 0 {
		t.Errorf("Seed allocates %.0f times per call", n)
	}
}

func TestNewBoundRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newBound(%d) did not panic", n)
				}
			}()
			newBound(n)
		}()
	}
}
