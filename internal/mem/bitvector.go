package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitVector is a spatial memory-access pattern over a region of up to 64
// lines, exactly as used by SMS-family prefetchers: bit i is set when
// line offset i of the region has been accessed. The zero value is an
// empty pattern of length 0; construct with NewBitVector.
//
// BitVector is a small value type; methods that modify it use pointer
// receivers, pure queries use value receivers.
type BitVector struct {
	bits uint64
	n    int // pattern length (number of valid offsets), 1..64
}

// NewBitVector returns an empty pattern of the given length. Length must
// be in [1, 64].
func NewBitVector(length int) BitVector {
	if length < 1 || length > 64 {
		panic("mem: bit vector length must be in [1, 64]")
	}
	return BitVector{n: length}
}

// BitVectorOf builds a pattern of the given length with the listed
// offsets set. Offsets outside [0, length) panic.
func BitVectorOf(length int, offsets ...int) BitVector {
	v := NewBitVector(length)
	for _, o := range offsets {
		v.Set(o)
	}
	return v
}

// Len returns the pattern length.
func (v BitVector) Len() int { return v.n }

// Bits returns the raw bit set. Only the low Len() bits are meaningful.
func (v BitVector) Bits() uint64 { return v.bits }

// Set marks offset o as accessed.
func (v *BitVector) Set(o int) {
	v.check(o)
	v.bits |= 1 << uint(o)
}

// Clear unmarks offset o.
func (v *BitVector) Clear(o int) {
	v.check(o)
	v.bits &^= 1 << uint(o)
}

// Test reports whether offset o is set.
func (v BitVector) Test(o int) bool {
	v.check(o)
	return v.bits&(1<<uint(o)) != 0
}

func (v BitVector) check(o int) {
	if o < 0 || o >= v.n {
		//lint:ignore hotalloc formats only on the out-of-range panic, a programming error
		panic(fmt.Sprintf("mem: offset %d out of range for %d-bit pattern", o, v.n))
	}
}

// PopCount returns the number of set offsets.
func (v BitVector) PopCount() int { return bits.OnesCount64(v.bits) }

// Empty reports whether no offset is set.
func (v BitVector) Empty() bool { return v.bits == 0 }

// Anchor returns the pattern left-circular-shifted so that the trigger
// offset becomes position 0 (paper Fig 6a). Anchoring makes patterns
// from different regions comparable: position k of the result means
// "k lines after the trigger, modulo the region".
func (v BitVector) Anchor(trigger int) BitVector {
	v.check(trigger)
	return v.RotateLeft(trigger)
}

// Unanchor inverts Anchor for the given trigger offset.
func (v BitVector) Unanchor(trigger int) BitVector {
	v.check(trigger)
	return v.RotateLeft(-trigger)
}

// RotateLeft rotates the pattern left by k positions within its length
// (negative k rotates right). Bits never cross the pattern length.
func (v BitVector) RotateLeft(k int) BitVector {
	n := v.n
	k %= n
	if k < 0 {
		k += n
	}
	if k == 0 || n == 64 {
		if n == 64 {
			return BitVector{bits: bits.RotateLeft64(v.bits, -k), n: n}
		}
		return v
	}
	mask := uint64(1)<<uint(n) - 1
	b := v.bits & mask
	out := (b>>uint(k) | b<<uint(n-k)) & mask
	return BitVector{bits: out, n: n}
}

// Or returns the union of two equal-length patterns.
func (v BitVector) Or(o BitVector) BitVector {
	v.sameLen(o)
	return BitVector{bits: v.bits | o.bits, n: v.n}
}

// And returns the intersection of two equal-length patterns.
func (v BitVector) And(o BitVector) BitVector {
	v.sameLen(o)
	return BitVector{bits: v.bits & o.bits, n: v.n}
}

func (v BitVector) sameLen(o BitVector) {
	if v.n != o.n {
		panic("mem: bit vector length mismatch")
	}
}

// Fold ORs together groups of `group` adjacent bits, producing a pattern
// of length Len()/group. This is the coarse reduction used by the PMP
// PC Pattern Table (paper Fig 6d): 10100001 with group 2 folds to 1101.
func (v BitVector) Fold(group int) BitVector {
	if group < 1 || v.n%group != 0 {
		panic("mem: fold group must divide pattern length")
	}
	if group == 1 {
		return v
	}
	out := NewBitVector(v.n / group)
	for i := 0; i < v.n; i += group {
		seg := v.bits >> uint(i) & (1<<uint(group) - 1)
		if seg != 0 {
			out.Set(i / group)
		}
	}
	return out
}

// Offsets returns the set offsets in ascending order.
func (v BitVector) Offsets() []int {
	out := make([]int, 0, v.PopCount())
	b := v.bits
	for b != 0 {
		o := bits.TrailingZeros64(b)
		out = append(out, o)
		b &= b - 1
	}
	return out
}

// String renders the pattern LSB-first (offset 0 leftmost), e.g. "1011"
// for offsets {0,2,3} with length 4, matching the paper's examples.
func (v BitVector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
