package mem

import (
	"math"
	"testing"
	"testing/quick"
)

// The paper's counter-vector examples, run on the packed table: a row
// of a PackedCounterTable is one counter vector.

// loadRow returns a one-row table of len(counts) `bits`-wide counters
// holding counts, reached through merges as the hardware would:
// merge s selects every offset whose target exceeds s. counts[0], the
// time counter, must be the largest.
func loadRow(bits int, counts ...uint32) *PackedCounterTable {
	t := NewPackedCounterTable(1, len(counts), bits)
	for s := uint32(0); s < counts[0]; s++ {
		p := NewBitVector(len(counts))
		for j, c := range counts {
			if c > s {
				p.Set(j)
			}
		}
		t.MergeRowNoHalve(0, p)
	}
	return t
}

// checkRow compares row 0 of t against want.
func checkRow(t *testing.T, tab *PackedCounterTable, want ...uint32) {
	t.Helper()
	for j, w := range want {
		if got := tab.RowCounter(0, j); got != w {
			t.Fatalf("row = %s, want %v", tab.RowString(0), want)
		}
	}
}

// frequency returns counter j's access frequency, counter/time, or 0
// for an untrained row.
func frequency(tab *PackedCounterTable, j int) float64 {
	if tab.RowTime(0) == 0 {
		return 0
	}
	return float64(tab.RowCounter(0, j)) / float64(tab.RowTime(0))
}

// The paper's Fig 6a example: merging anchored (1,0,1,0,0,0,0,1) into
// counter vector (3,0,3,0,3,0,0,0) yields (4,0,4,0,3,0,0,1).
func TestMergePaperExample(t *testing.T) {
	tab := loadRow(5, 3, 0, 3, 0, 3, 0, 0, 0)
	if halved := tab.MergeRow(0, BitVectorOf(8, 0, 2, 7)); halved {
		t.Fatal("unexpected halving")
	}
	checkRow(t, tab, 4, 0, 4, 0, 3, 0, 0, 1)
}

// The paper's halving example: (4,0,4,0,3,0,0,1) halved is
// (2,0,2,0,1,0,0,0).
func TestHalvingPaperExample(t *testing.T) {
	tab := loadRow(5, 4, 0, 4, 0, 3, 0, 0, 1)
	tab.HalveRow(0)
	checkRow(t, tab, 2, 0, 2, 0, 1, 0, 0, 0)
}

func TestMergeSaturationTriggersHalve(t *testing.T) {
	tab := NewPackedCounterTable(1, 4, 2) // max = 3
	p := BitVectorOf(4, 0, 1)
	if tab.MergeRow(0, p) {
		t.Error("first merge should not halve")
	}
	if tab.MergeRow(0, p) {
		t.Error("second merge should not halve")
	}
	if !tab.MergeRow(0, p) {
		t.Error("third merge should saturate the time counter and halve")
	}
	if tab.RowTime(0) != 1 { // 3 halved
		t.Errorf("time after halve = %d, want 1", tab.RowTime(0))
	}
}

func TestMergeRejectsUnanchored(t *testing.T) {
	tab := NewPackedCounterTable(1, 8, 5)
	defer func() {
		if recover() == nil {
			t.Error("merging pattern with clear trigger bit should panic")
		}
	}()
	tab.MergeRow(0, BitVectorOf(8, 1, 2))
}

func TestFrequency(t *testing.T) {
	if frequency(NewPackedCounterTable(1, 4, 5), 1) != 0 {
		t.Error("untrained row should have zero frequency")
	}
	// Paper §IV-B AFE example: (4, 2, 0, 1) has frequencies
	// (-, 2/4, 0, 1/4).
	tab := loadRow(5, 4, 2, 0, 1)
	if got := frequency(tab, 1); got != 0.5 {
		t.Errorf("frequency(1) = %v, want 0.5", got)
	}
	if got := frequency(tab, 3); got != 0.25 {
		t.Errorf("frequency(3) = %v, want 0.25", got)
	}
	if got := frequency(tab, 0); got != 1.0 {
		t.Errorf("frequency(0) = %v, want 1", got)
	}
}

func TestSumExcludesTrigger(t *testing.T) {
	if got := loadRow(5, 4, 2, 0, 1).RowSum(0); got != 3 {
		t.Errorf("RowSum(0) = %d, want 3", got)
	}
}

// Property: merging never lets a counter exceed its saturation value and
// the time counter stays the max element.
func TestMergeInvariants(t *testing.T) {
	f := func(patterns []uint16) bool {
		tab := NewPackedCounterTable(1, 16, 4)
		for _, raw := range patterns {
			tab.MergeRow(0, BitVector{bits: uint64(raw) | 1, n: 16}) // force anchored
			for j := 0; j < 16; j++ {
				c := tab.RowCounter(0, j)
				if c > tab.MaxCounter() || c > tab.RowTime(0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: halving approximately preserves frequencies — the paper's
// footnote 1. For counters >= 2 the relative error of freq after a halve
// is bounded by 1/c + 1/t.
func TestHalvePreservesFrequencies(t *testing.T) {
	tab := loadRow(8, 200, 100, 50, 3, 0, 199, 17, 60)
	before := make([]float64, 8)
	for i := range before {
		before[i] = frequency(tab, i)
	}
	tab.HalveRow(0)
	for i := range before {
		after := frequency(tab, i)
		if before[i] == 0 {
			if after != 0 {
				t.Errorf("offset %d: zero frequency became %v", i, after)
			}
			continue
		}
		if math.Abs(after-before[i]) > 0.02 {
			t.Errorf("offset %d: frequency drifted %v -> %v", i, before[i], after)
		}
	}
}

func TestStorageBits(t *testing.T) {
	// Paper Table III: OPT counter vector is 64 x 5b = 320 bits.
	if got := NewPackedCounterTable(1, 64, 5).StorageBits(); got != 320 {
		t.Errorf("StorageBits() = %d, want 320", got)
	}
	// PPT coarse vector: 32 x 5b = 160 bits.
	if got := NewPackedCounterTable(1, 32, 5).StorageBits(); got != 160 {
		t.Errorf("StorageBits() = %d, want 160", got)
	}
}

func TestCounterVectorString(t *testing.T) {
	if got := loadRow(5, 4, 0, 3, 1).RowString(0); got != "(4, 0, 3, 1)" {
		t.Errorf("RowString(0) = %q", got)
	}
}

func TestCounterVectorReset(t *testing.T) {
	tab := NewPackedCounterTable(2, 4, 5)
	tab.MergeRow(0, BitVectorOf(4, 0, 2))
	tab.MergeRow(1, BitVectorOf(4, 0, 3))
	tab.Reset()
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if c := tab.RowCounter(i, j); c != 0 {
				t.Fatalf("Reset left row %d counter %d = %d", i, j, c)
			}
		}
	}
}

func TestCounterVectorConstructorPanics(t *testing.T) {
	for _, tc := range []struct{ entries, n, b int }{
		{0, 8, 5}, {1, 0, 5}, {1, 65, 5}, {1, 8, 0}, {1, 8, MaxPackedBits + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPackedCounterTable(%d,%d,%d) did not panic", tc.entries, tc.n, tc.b)
				}
			}()
			NewPackedCounterTable(tc.entries, tc.n, tc.b)
		}()
	}
}
