package mem

import (
	"fmt"
	"strings"
)

// The scalar reference pattern engine: one uint32 per counter and one
// loop per operation, written straight from the paper's §IV-A
// definitions. It is the oracle TestPackedMatchesScalar and
// FuzzPackedMerge hold PackedCounterTable to, bit for bit.

// CounterVector is one merged-pattern row: one saturating counter per
// anchored line offset, element 0 being the time counter.
type CounterVector struct {
	c   []uint32
	max uint32 // saturation value, (1<<bits)-1
}

// Merge accumulates an anchored pattern into the vector: every set
// offset's counter is incremented (saturating). If the time counter
// saturates, the whole vector is halved and Merge reports true.
func (cv *CounterVector) Merge(p BitVector) (halved bool) {
	cv.MergeNoHalve(p)
	if cv.c[0] >= cv.max {
		cv.Halve()
		return true
	}
	return false
}

// MergeNoHalve accumulates a pattern like Merge but never halves:
// counters freeze at their ceiling.
func (cv *CounterVector) MergeNoHalve(p BitVector) {
	if p.Len() != len(cv.c) {
		panic("mem: pattern length does not match counter vector")
	}
	if p.Bits()&1 == 0 {
		panic("mem: merging unanchored pattern (trigger bit clear)")
	}
	b := p.Bits()
	for i := range cv.c {
		if b&(1<<uint(i)) != 0 && cv.c[i] < cv.max {
			cv.c[i]++
		}
	}
}

// Halve divides every counter by two (floor).
func (cv *CounterVector) Halve() {
	for i := range cv.c {
		cv.c[i] >>= 1
	}
}

// Sum returns the sum of all counters excluding the trigger element.
func (cv *CounterVector) Sum() uint64 {
	var s uint64
	for _, v := range cv.c[1:] {
		s += uint64(v)
	}
	return s
}

// String renders the counters like the paper's examples: "(4, 0, 4, 0)".
func (cv *CounterVector) String() string {
	parts := make([]string, len(cv.c))
	for i, v := range cv.c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CounterTable is `entries` CounterVector rows of equal length sharing
// one backing slice, with PackedCounterTable's row-oriented methods.
type CounterTable struct {
	rows []CounterVector
	back []uint32
}

// NewCounterTable returns a zeroed table of `entries` rows, each
// `length` counters `bits` wide.
func NewCounterTable(entries, length, bits int) *CounterTable {
	back := make([]uint32, entries*length)
	rows := make([]CounterVector, entries)
	for i := range rows {
		rows[i] = CounterVector{
			c:   back[i*length : (i+1)*length : (i+1)*length],
			max: uint32(1)<<uint(bits) - 1,
		}
	}
	return &CounterTable{rows: rows, back: back}
}

// Row returns row i as a live view.
func (t *CounterTable) Row(i int) *CounterVector { return &t.rows[i] }

// RowLen returns the number of counters per row.
func (t *CounterTable) RowLen() int { return len(t.rows[0].c) }

// MaxCounter returns the saturation ceiling.
func (t *CounterTable) MaxCounter() uint32 { return t.rows[0].max }

// MergeRow merges a pattern into row i and reports whether it halved.
func (t *CounterTable) MergeRow(i int, p BitVector) bool { return t.rows[i].Merge(p) }

// MergeRowNoHalve merges a pattern into row i without halving.
func (t *CounterTable) MergeRowNoHalve(i int, p BitVector) { t.rows[i].MergeNoHalve(p) }

// HalveRow halves every counter of row i.
func (t *CounterTable) HalveRow(i int) { t.rows[i].Halve() }

// RowTime returns row i's time counter.
func (t *CounterTable) RowTime(i int) uint32 { return t.rows[i].c[0] }

// RowSum returns the sum of row i's counters excluding the trigger.
func (t *CounterTable) RowSum(i int) uint64 { return t.rows[i].Sum() }

// RowCounter returns counter j of row i.
func (t *CounterTable) RowCounter(i, j int) uint32 { return t.rows[i].c[j] }

// CompareRow returns offset masks of row i's counters clearing each
// threshold, one comparison per counter.
func (t *CounterTable) CompareRow(i int, thr1, thr2 uint32) (ge1, ge2 uint64) {
	for j, c := range t.rows[i].c {
		if c >= thr1 {
			ge1 |= 1 << uint(j)
		}
		if c >= thr2 {
			ge2 |= 1 << uint(j)
		}
	}
	return ge1, ge2
}

// Reset zeroes every counter in the table.
func (t *CounterTable) Reset() { clear(t.back) }
