package core

import (
	"math/rand"
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// extractReference fills dst (len == t.RowLen()) with row `row`'s
// per-offset target levels using the paper's literal per-offset float
// comparisons (§IV-B), reading the counters one at a time through
// RowCounter. It is the oracle ExtractRow must agree with bit for bit.
func extractReference(e extractor, t *mem.PackedCounterTable, row int, dst []prefetch.Level) {
	for i := range dst {
		dst[i] = prefetch.LevelNone
	}
	switch e.scheme {
	case ANE:
		// An offset's raw counter must clear an absolute threshold.
		for i := 1; i < len(dst); i++ {
			c := t.RowCounter(row, i)
			switch {
			case c >= e.anel1:
				dst[i] = prefetch.LevelL1
			case c >= e.anel2:
				dst[i] = prefetch.LevelL2
			}
		}
	case ARE:
		// An offset's share of the non-trigger counter sum must clear a
		// threshold; as the paper notes, this caps the prefetch depth at
		// 1/threshold.
		var sum uint64
		for i := 1; i < len(dst); i++ {
			sum += uint64(t.RowCounter(row, i))
		}
		extractRatio(e, t, row, sum, dst)
	default:
		// AFE: an offset's access frequency (counter/time) must clear a
		// threshold.
		extractRatio(e, t, row, uint64(t.RowCounter(row, 0)), dst)
	}
}

// extractRatio selects offsets whose counter/den clears TL1D (L1D) or
// else TL2C (L2C); a zero denominator selects nothing.
func extractRatio(e extractor, t *mem.PackedCounterTable, row int, den uint64, dst []prefetch.Level) {
	if den == 0 {
		return
	}
	fd := float64(den)
	for i := 1; i < len(dst); i++ {
		r := float64(t.RowCounter(row, i)) / fd
		switch {
		case r >= e.tl1d:
			dst[i] = prefetch.LevelL1
		case r >= e.tl2c:
			dst[i] = prefetch.LevelL2
		}
	}
}

// diffExtractors builds one extractor per scheme with the given float
// thresholds, so every scheme's mask-first path is exercised against
// its float reference.
func diffExtractors(tl1d, tl2c float64, anel1, anel2 uint32) []extractor {
	var es []extractor
	for _, s := range []Scheme{AFE, ANE, ARE} {
		cfg := DefaultConfig()
		cfg.Scheme = s
		cfg.TL1D, cfg.TL2C = tl1d, tl2c
		cfg.ANEL1, cfg.ANEL2 = anel1, anel2
		es = append(es, newExtractor(cfg))
	}
	return es
}

// checkExtractAgainstReference runs the mask-first ExtractRow and the
// per-offset float reference on the same row and demands they agree at
// every offset.
func checkExtractAgainstReference(t *testing.T, e extractor, tab *mem.PackedCounterTable, row int) {
	t.Helper()
	length := tab.RowLen()
	ref := make([]prefetch.Level, length)
	got := make([]prefetch.Level, length)
	extractReference(e, tab, row, ref)
	e.ExtractRow(tab, row, got)
	for i := 0; i < length; i++ {
		if got[i] != ref[i] {
			t.Fatalf("scheme %v row %d offset %d: mask-first %v, float reference %v\nrow: %s",
				e.scheme, row, i, got[i], ref[i], tab.RowString(row))
		}
	}
}

// TestExtractRowMatchesFloatReference is the differential test the
// extract.go doc comment promises: the mask-first ExtractRow must agree
// bit-for-bit with the per-offset float reference on every reachable
// table state, across all three schemes, a spread of thresholds
// including exact rounding boundaries, and every counter width the
// configuration allows.
func TestExtractRowMatchesFloatReference(t *testing.T) {
	thresholds := []struct {
		tl1d, tl2c   float64
		anel1, anel2 uint32
	}{
		{0.5, 0.15, 16, 5},   // paper defaults
		{1, 0.5, 31, 31},     // only saturated 5-bit counters clear L1
		{0, 0, 0, 0},         // everything clears both (precedence test)
		{0.25, 0.25, 8, 8},   // equal thresholds: L1 precedence everywhere
		{1.0 / 3, 0.2, 1, 1}, // non-representable float threshold
		{2, 1.5, 40, 33},     // ratios never reach them: no AFE/ARE targets
	}
	for bits := 1; bits <= mem.MaxPackedBits; bits++ {
		for _, length := range []int{64, 16, 33} {
			rng := rand.New(rand.NewSource(int64(length*100 + bits)))
			const entries = 4
			tab := mem.NewPackedCounterTable(entries, length, bits)
			for step := 0; step < 500; step++ {
				row := rng.Intn(entries)
				if rng.Intn(8) == 0 {
					tab.HalveRow(row)
				} else {
					tab.MergeRow(row, randomAnchoredPattern(rng, length))
				}
				th := thresholds[step%len(thresholds)]
				for _, e := range diffExtractors(th.tl1d, th.tl2c, th.anel1, th.anel2) {
					checkExtractAgainstReference(t, e, tab, row)
				}
			}
		}
	}
}

// TestExtractRowEmptyDenominator pins the silent-row contract: a row
// whose time counter (AFE) or counter sum (ARE) is zero yields no
// targets from either path.
func TestExtractRowEmptyDenominator(t *testing.T) {
	tab := mem.NewPackedCounterTable(1, 8, 5)
	for _, e := range diffExtractors(0.5, 0.15, 16, 5) {
		checkExtractAgainstReference(t, e, tab, 0)
	}
}

func randomAnchoredPattern(rng *rand.Rand, length int) mem.BitVector {
	p := mem.NewBitVector(length)
	p.Set(0)
	for i := 1; i < length; i++ {
		if rng.Intn(3) == 0 {
			p.Set(i)
		}
	}
	return p
}

// FuzzExtractRow lets the fuzzer hunt for geometries, threshold and
// counter states where integer pre-scaling could drift from the float
// semantics. The fuzzer picks the counter width (1..MaxPackedBits), the
// row length (1..64), two patterns merged alternately (enough merges
// to saturate and halve at every width) and the thresholds.
func FuzzExtractRow(f *testing.F) {
	f.Add(uint8(5), uint8(64), uint64(0xFFFF_0000_FFFF_0001), uint64(0x0F0F), uint16(3), uint16(500), uint16(150))
	f.Add(uint8(4), uint8(16), uint64(1), uint64(0xFF), uint16(63), uint16(1000), uint16(1000))
	f.Add(uint8(16), uint8(33), ^uint64(0), uint64(0x1_0001), uint16(65535), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, width, size uint8, patA, patB uint64, merges, thr1m, thr2m uint16) {
		bits := 1 + int(width)%mem.MaxPackedBits
		length := 1 + int(size)%64
		tab := mem.NewPackedCounterTable(1, length, bits)
		pats := [2]mem.BitVector{anchoredPattern(patA, length), anchoredPattern(patB, length)}
		for i := 0; i < int(merges)%(2*int(tab.MaxCounter())+2)+1; i++ {
			tab.MergeRow(0, pats[i&1])
		}
		// Thresholds in [0, ~1.6), quantized; fuzzer steers the mantissa.
		tl1d := float64(thr1m) / 40000
		tl2c := float64(thr2m) / 40000
		anel := tab.MaxCounter() + 3
		for _, e := range diffExtractors(tl1d, tl2c, uint32(thr1m)%anel, uint32(thr2m)%anel) {
			checkExtractAgainstReference(t, e, tab, 0)
		}
	})
}

// anchoredPattern returns the low `length` bits of raw as a pattern
// with the trigger bit forced on.
func anchoredPattern(raw uint64, length int) mem.BitVector {
	p := mem.NewBitVector(length)
	for o := 0; o < length; o++ {
		if raw&(1<<uint(o)) != 0 {
			p.Set(o)
		}
	}
	p.Set(0)
	return p
}
