package mem

import (
	"fmt"
	"math/bits"
	"strings"
)

// PackedCounterTable is PMP's pattern-table engine: a dense 2D array of
// saturating counters, one row per table entry, one counter per
// (anchored) line offset. Counter 0 of a row is the time counter — it
// increments on every merge, so counter[j]/counter[0] is offset j's
// access frequency over the last observation window (paper §IV-A) —
// and when it saturates the whole row is halved, aging out stale
// history while (almost) preserving those frequencies.
//
// Every row's counters are packed `64/bits` to a uint64 word (16 per
// word at the 4-bit width, 12 at the paper's default 5 bits), and the
// three per-trigger operations — Merge, Halve, threshold compare — run
// word-at-a-time with SWAR bit tricks instead of per-counter loops:
//
//   - Merge is a carry-save saturating increment: lanes already at their
//     ceiling are detected with an AND-fold across the lane bits, masked
//     out of the pattern-selected increment vector, and the remaining
//     lanes are bumped with a single ADD (no lane can carry into its
//     neighbour because saturated lanes were excluded).
//   - Halve is one shift and one mask per word: (w >> 1) & halveMask,
//     where halveMask clears the bit each lane would otherwise inherit
//     from its upper neighbour.
//   - CompareRow evaluates counter >= threshold for every lane at once
//     using the Hacker's-Delight unsigned SWAR comparison (MSB-decomposed
//     borrow-free subtraction) and returns the selected offsets as a
//     uint64 mask — no per-offset divides; the caller pre-scales its
//     float thresholds to integer lane comparisons once per extraction.
//
// Semantics are bit-identical to the one-uint32-per-counter scalar
// reference kept in this package's tests; the differential tests and
// fuzz targets there pin it at every width from 1 to MaxPackedBits.
type PackedCounterTable struct {
	words   []uint64
	entries int
	length  int // counters per row
	bits    int // counter width
	lanes   int // counters per word, 64/bits
	wpr     int // words per row
	max     uint32

	// Per-word-in-row lane masks. All words of a row share the full-word
	// masks except the last, which may hold fewer valid lanes.
	lsb   []uint64 // bit 0 of every valid lane
	msb   []uint64 // bit bits-1 of every valid lane
	halve []uint64 // low bits-1 bits of every valid lane

	// Scatter/gather lookup tables, hoisting the divides the hot loops
	// would otherwise pay per set bit (div by a non-constant is tens of
	// cycles; a 64-entry byte table is one L1 load).
	selWord [64]uint8  // offset -> word index within the row
	selMask [64]uint64 // offset -> lane-LSB select mask within that word
	laneOf  [64]uint8  // bit position within a word -> lane index
}

// MaxPackedBits is the widest counter PackedCounterTable packs (four
// lanes per word). core.Config.Validate caps PMP's counter widths at
// it, so every legal configuration runs on this engine.
const MaxPackedBits = 16

// NewPackedCounterTable returns a zeroed table of `entries` rows, each
// `length` counters of `bits` width. Bounds: entries >= 1, length in
// [1, 64], bits in [1, MaxPackedBits].
func NewPackedCounterTable(entries, length, bits int) *PackedCounterTable {
	if entries < 1 {
		panic("mem: counter table needs at least one entry")
	}
	if length < 1 || length > 64 {
		panic("mem: counter vector length must be in [1, 64]")
	}
	if bits < 1 || bits > MaxPackedBits {
		panic("mem: packed counter bits must be in [1, 16]")
	}
	lanes := 64 / bits
	wpr := (length + lanes - 1) / lanes
	t := &PackedCounterTable{
		words:   make([]uint64, entries*wpr),
		entries: entries,
		length:  length,
		bits:    bits,
		lanes:   lanes,
		wpr:     wpr,
		max:     uint32(1)<<uint(bits) - 1,
		lsb:     make([]uint64, wpr),
		msb:     make([]uint64, wpr),
		halve:   make([]uint64, wpr),
	}
	for w := 0; w < wpr; w++ {
		valid := lanes
		if w == wpr-1 {
			valid = length - w*lanes
		}
		var lsb uint64
		for l := 0; l < valid; l++ {
			lsb |= 1 << uint(l*bits)
		}
		t.lsb[w] = lsb
		t.msb[w] = lsb << uint(bits-1)
		t.halve[w] = lsb * (1<<uint(bits-1) - 1)
	}
	for o := 0; o < length; o++ {
		t.selWord[o] = uint8(o / lanes)
		t.selMask[o] = 1 << uint(o%lanes*bits)
	}
	for b := 0; b < 64; b++ {
		t.laneOf[b] = uint8(b / bits)
	}
	return t
}

// RowLen returns the number of counters per row.
func (t *PackedCounterTable) RowLen() int { return t.length }

// MaxCounter returns the saturation ceiling, (1<<bits)-1.
func (t *PackedCounterTable) MaxCounter() uint32 { return t.max }

// row returns the word slice backing row i.
//
//pmp:hotpath
func (t *PackedCounterTable) row(i int) []uint64 {
	return t.words[i*t.wpr : (i+1)*t.wpr : (i+1)*t.wpr]
}

// satLSB returns a mask with bit 0 of every lane of w whose counter sits
// at the saturation ceiling: an AND-fold of the word across its lane
// bits leaves lane-LSB 1 exactly when all `bits` lane bits are 1.
//
//pmp:hotpath
func (t *PackedCounterTable) satLSB(w uint64, wi int) uint64 {
	x := w
	for s := 1; s < t.bits; s++ {
		x &= w >> uint(s)
	}
	return x & t.lsb[wi]
}

// MergeRow accumulates an anchored pattern (bit 0 = the trigger
// offset) into row i: a SWAR saturating increment of all lanes the
// pattern selects (~4 ops per word beyond the saturation fold),
// followed by a word-parallel halve when the time counter saturates.
// It reports whether the row was halved. Merging a pattern of the wrong
// length, or one whose bit 0 is clear, panics: both mean the caller
// skipped anchoring.
//
//pmp:hotpath
func (t *PackedCounterTable) MergeRow(i int, p BitVector) bool {
	t.mergeRow(i, p)
	row := t.row(i)
	if uint32(row[0]&uint64(t.max)) >= t.max {
		t.HalveRow(i)
		return true
	}
	return false
}

// MergeRowNoHalve accumulates like MergeRow but counters freeze at
// their ceiling instead of halving (the halving-mechanism ablation).
//
//pmp:hotpath
func (t *PackedCounterTable) MergeRowNoHalve(i int, p BitVector) { t.mergeRow(i, p) }

//pmp:hotpath
func (t *PackedCounterTable) mergeRow(i int, p BitVector) {
	if p.Len() != t.length {
		panic("mem: pattern length does not match counter vector")
	}
	if p.Bits()&1 == 0 {
		panic("mem: merging unanchored pattern (trigger bit clear)")
	}
	// Spread the pattern's offset bits into per-word lane-LSB select
	// masks. Patterns are sparse, so iterating set bits beats a dense
	// deposit; the scratch lives on the stack (wpr <= 16).
	var sel [16]uint64
	for bm := p.Bits(); bm != 0; bm &= bm - 1 {
		o := bits.TrailingZeros64(bm)
		sel[t.selWord[o]] |= t.selMask[o]
	}
	row := t.row(i)
	for w := range row {
		s := sel[w]
		if s == 0 {
			continue
		}
		// Carry-save saturating increment: drop saturated lanes from the
		// select mask, then one ADD bumps every remaining lane; no lane
		// can overflow into its neighbour because lanes below the ceiling
		// have headroom by construction.
		row[w] += s &^ t.satLSB(row[w], w)
	}
}

// HalveRow divides every counter of row i by two (floor) in one
// shift+mask per word, the mask stopping each lane from inheriting the
// LSB of its upper neighbour.
//
//pmp:hotpath
func (t *PackedCounterTable) HalveRow(i int) {
	row := t.row(i)
	for w := range row {
		row[w] = row[w] >> 1 & t.halve[w]
	}
}

// RowTime returns row i's time counter: lane 0 of the row's first
// word.
//
//pmp:hotpath
func (t *PackedCounterTable) RowTime(i int) uint32 {
	return uint32(t.row(i)[0] & uint64(t.max))
}

// RowSum returns the sum of row i's counters excluding the trigger
// lane (ARE extraction). The horizontal add stays in registers.
//
//pmp:hotpath
func (t *PackedCounterTable) RowSum(i int) uint64 {
	var sum uint64
	rem := t.length
	for _, word := range t.row(i) {
		valid := min(rem, t.lanes)
		for l := 0; l < valid; l++ {
			sum += word & uint64(t.max)
			word >>= uint(t.bits)
		}
		rem -= valid
	}
	return sum - uint64(t.RowTime(i))
}

// RowCounter returns the value of counter j of row i.
func (t *PackedCounterTable) RowCounter(i, j int) uint32 {
	if j < 0 || j >= t.length {
		panic("mem: counter index out of range")
	}
	return uint32(t.row(i)[j/t.lanes] >> uint(j%t.lanes*t.bits) & uint64(t.max))
}

// CompareRow returns offset masks of row i's counters clearing each
// threshold (counter >= thr; bit j set for counter j), one SWAR
// unsigned-compare pass per word per threshold. A threshold above the
// saturation ceiling yields an empty mask (no counter can reach it).
//
//pmp:hotpath
func (t *PackedCounterTable) CompareRow(i int, thr1, thr2 uint32) (ge1, ge2 uint64) {
	row := t.row(i)
	for w, word := range row {
		base := w * t.lanes
		if thr1 <= t.max {
			for f := t.geFlags(word, thr1, w); f != 0; f &= f - 1 {
				ge1 |= 1 << uint(base+int(t.laneOf[bits.TrailingZeros64(f)]))
			}
		}
		if thr2 <= t.max {
			for f := t.geFlags(word, thr2, w); f != 0; f &= f - 1 {
				ge2 |= 1 << uint(base+int(t.laneOf[bits.TrailingZeros64(f)]))
			}
		}
	}
	return ge1, ge2
}

// geFlags returns lane-MSB flags for every valid lane of word w whose
// counter is >= thr: the classic SWAR unsigned comparison. Setting each
// lane's MSB in x and clearing it in y makes the subtraction borrow-free
// across lanes; the lane MSBs of x, y and the difference then decide >=
// by the usual MSB case analysis.
//
//pmp:hotpath
func (t *PackedCounterTable) geFlags(word uint64, thr uint32, w int) uint64 {
	m := t.msb[w]
	y := t.lsb[w] * uint64(thr)
	sx := word & m
	sy := y & m
	diff := (word | m) - (y &^ m)
	return (sx&^sy | ^(sx^sy)&diff) & m
}

// Reset zeroes every counter in the table.
func (t *PackedCounterTable) Reset() { clear(t.words) }

// StorageBits returns the hardware cost of the table in bits: the
// counter payload, not the host representation's padding.
func (t *PackedCounterTable) StorageBits() int { return t.entries * t.length * t.bits }

// RowString renders row i like the paper's examples, "(4, 0, 3, 1)",
// for tests and debugging.
func (t *PackedCounterTable) RowString(i int) string {
	parts := make([]string, t.length)
	for j := range parts {
		parts[j] = fmt.Sprint(t.RowCounter(i, j))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
