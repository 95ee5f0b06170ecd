package core

import (
	"math/bits"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// extractor converts a triggered counter row into an anchored prefetch
// pattern: one target level per anchored offset. Index 0 (the trigger
// itself) is always LevelNone — "the trigger offset itself will never
// be prefetched" (paper §IV-B).
//
// Extraction (ExtractRow) is mask-first: the scheme's float thresholds
// are pre-scaled once per trigger to integer lane comparisons against
// the time counter (AFE) or counter sum (ARE), the table answers with
// uint64 candidate masks in one SWAR pass, and the masks are scattered
// into the level slice. The float semantics of the schemes are
// preserved exactly — the integer threshold is the smallest counter
// value satisfying the original float comparison, found by binary
// search over the same float64 expression — and the paper's literal
// per-offset float comparisons are kept in this package's tests as the
// reference the differential tests and fuzz target compare against.
type extractor struct {
	scheme Scheme
	tl1d   float64
	tl2c   float64
	anel1  uint32
	anel2  uint32
}

func newExtractor(c Config) extractor {
	return extractor{
		scheme: c.Scheme,
		tl1d:   c.TL1D,
		tl2c:   c.TL2C,
		anel1:  c.ANEL1,
		anel2:  c.ANEL2,
	}
}

// ExtractRow fills dst (len == t.RowLen()) with the per-offset target
// level for row `row`, using the table's word-parallel threshold
// compare. This is the hot path behind every PMP trigger access.
//
//pmp:hotpath
func (e extractor) ExtractRow(t *mem.PackedCounterTable, row int, dst []prefetch.Level) {
	for i := range dst {
		dst[i] = prefetch.LevelNone
	}
	var thr1, thr2 uint32
	switch e.scheme {
	case ANE:
		thr1, thr2 = e.anel1, e.anel2
	case ARE:
		den := t.RowSum(row)
		if den == 0 {
			return
		}
		thr1 = minCountFor(den, e.tl1d, t.MaxCounter())
		thr2 = minCountFor(den, e.tl2c, t.MaxCounter())
	default: // AFE
		tc := t.RowTime(row)
		if tc == 0 {
			return
		}
		thr1 = minCountFor(uint64(tc), e.tl1d, t.MaxCounter())
		thr2 = minCountFor(uint64(tc), e.tl2c, t.MaxCounter())
	}
	ge1, ge2 := t.CompareRow(row, thr1, thr2)
	// L1 takes precedence over L2, and the trigger offset is never a
	// target.
	ge2 &^= ge1 | 1
	ge1 &^= 1
	for m := ge1; m != 0; m &= m - 1 {
		dst[bits.TrailingZeros64(m)] = prefetch.LevelL1
	}
	for m := ge2; m != 0; m &= m - 1 {
		dst[bits.TrailingZeros64(m)] = prefetch.LevelL2
	}
}

// minCountFor returns the smallest counter value c in [0, max] with
// float64(c)/float64(den) >= thr, or max+1 when no counter can clear
// the threshold. Binary search over the exact float64 predicate the
// float reference evaluates per offset, so pre-scaling cannot drift
// from the float semantics even at rounding boundaries.
//
//pmp:hotpath
func minCountFor(den uint64, thr float64, max uint32) uint32 {
	fd := float64(den)
	lo, hi := uint32(0), max+1
	for lo < hi {
		mid := (lo + hi) / 2
		if float64(mid)/fd >= thr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
