package core

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// mergeVector builds a one-row pattern table by merging a sequence of
// anchored patterns, returning the result.
func mergeVector(length, bits int, patterns ...[]int) *mem.PackedCounterTable {
	cv := mem.NewPackedCounterTable(1, length, bits)
	for _, offs := range patterns {
		p := mem.NewBitVector(length)
		p.Set(0)
		for _, o := range offs {
			p.Set(o)
		}
		cv.MergeRow(0, p)
	}
	return cv
}

func defaultExtractor() extractor { return newExtractor(DefaultConfig()) }

// Paper §IV-B AFE example: counter vector (4, 2, 0, 1) with T_l1d = 1/2
// and T_l2c reachable converts offset 1 (freq 2/4) to L1.
func TestAFEPaperExample(t *testing.T) {
	// Build (4, 2, 0, 1): four merges; offset 1 in two of them, offset 3
	// in one.
	cv := mergeVector(4, 5, []int{1}, []int{1, 3}, nil, nil)
	got := make([]prefetch.Level, 4)
	defaultExtractor().ExtractRow(cv, 0, got)
	if got[0] != prefetch.LevelNone {
		t.Error("trigger offset must never be prefetched")
	}
	if got[1] != prefetch.LevelL1 {
		t.Errorf("offset 1 (freq 0.5) = %v, want L1D", got[1])
	}
	if got[2] != prefetch.LevelNone {
		t.Errorf("offset 2 (freq 0) = %v, want none", got[2])
	}
	if got[3] != prefetch.LevelL2 {
		t.Errorf("offset 3 (freq 0.25) = %v, want L2C", got[3])
	}
}

func TestAFEUntrainedIsSilent(t *testing.T) {
	cv := mem.NewPackedCounterTable(1, 8, 5)
	got := make([]prefetch.Level, 8)
	defaultExtractor().ExtractRow(cv, 0, got)
	for i, l := range got {
		if l != prefetch.LevelNone {
			t.Errorf("untrained vector produced %v at %d", l, i)
		}
	}
}

// The AFE has no cold-start problem: an offset present in every pattern
// has frequency 1 from the first merge (paper §IV-B).
func TestAFENoColdStart(t *testing.T) {
	cv := mergeVector(8, 5, []int{1})
	got := make([]prefetch.Level, 8)
	defaultExtractor().ExtractRow(cv, 0, got)
	if got[1] != prefetch.LevelL1 {
		t.Errorf("offset seen in 1/1 patterns = %v, want L1D immediately", got[1])
	}
}

// The AFE handles stream patterns: all 63 offsets at frequency 1 are
// all selected (paper: "every offset that frequently occurs can be
// independently selected").
func TestAFEStreamPattern(t *testing.T) {
	all := make([]int, 63)
	for i := range all {
		all[i] = i + 1
	}
	cv := mergeVector(64, 5, all, all, all)
	got := make([]prefetch.Level, 64)
	defaultExtractor().ExtractRow(cv, 0, got)
	for i := 1; i < 64; i++ {
		if got[i] != prefetch.LevelL1 {
			t.Fatalf("stream offset %d = %v, want L1D", i, got[i])
		}
	}
}

// The ARE caps prefetch depth at 1/threshold: a uniform 63-offset
// stream yields nothing at T=15% (paper §IV-B).
func TestAREDepthLimit(t *testing.T) {
	all := make([]int, 63)
	for i := range all {
		all[i] = i + 1
	}
	cv := mergeVector(64, 5, all, all, all)
	cfg := DefaultConfig()
	cfg.Scheme = ARE
	got := make([]prefetch.Level, 64)
	newExtractor(cfg).ExtractRow(cv, 0, got)
	for i := 1; i < 64; i++ {
		if got[i] != prefetch.LevelNone {
			t.Fatalf("ARE selected offset %d on a uniform stream", i)
		}
	}
}

func TestAREConcentratedPattern(t *testing.T) {
	// One dominant offset: ratio 2/3 >= 0.5 -> L1; minor offset 1/3 ->
	// L2 (>= 0.15).
	cv := mergeVector(4, 5, []int{1}, []int{1, 3}, nil)
	cfg := DefaultConfig()
	cfg.Scheme = ARE
	got := make([]prefetch.Level, 4)
	newExtractor(cfg).ExtractRow(cv, 0, got)
	if got[1] != prefetch.LevelL1 || got[3] != prefetch.LevelL2 {
		t.Errorf("ARE = %v, want [_, L1D, none, L2C]", got)
	}
}

func TestAREEmptySum(t *testing.T) {
	cv := mergeVector(4, 5, nil, nil) // only the trigger counter advances
	cfg := DefaultConfig()
	cfg.Scheme = ARE
	got := make([]prefetch.Level, 4)
	newExtractor(cfg).ExtractRow(cv, 0, got)
	for _, l := range got {
		if l != prefetch.LevelNone {
			t.Error("zero-sum vector should be silent")
		}
	}
}

// The ANE needs absolute counts: an offset must be seen T times before
// being prefetched (the cold-start problem, paper §IV-B).
func TestANEColdStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = ANE
	cfg.ANEL1 = 16
	cfg.ANEL2 = 5
	cfg.OPTCounterBits = 8
	e := newExtractor(cfg)
	got := make([]prefetch.Level, 8)

	cv := mem.NewPackedCounterTable(1, 8, 8)
	p := mem.BitVectorOf(8, 0, 1)
	for i := 0; i < 4; i++ {
		cv.MergeRow(0, p)
	}
	e.ExtractRow(cv, 0, got)
	if got[1] != prefetch.LevelNone {
		t.Errorf("4 observations = %v, want none (below ANE L2 threshold)", got[1])
	}
	cv.MergeRow(0, p)
	e.ExtractRow(cv, 0, got)
	if got[1] != prefetch.LevelL2 {
		t.Errorf("5 observations = %v, want L2C", got[1])
	}
	for i := 0; i < 11; i++ {
		cv.MergeRow(0, p)
	}
	e.ExtractRow(cv, 0, got)
	if got[1] != prefetch.LevelL1 {
		t.Errorf("16 observations = %v, want L1D", got[1])
	}
}

// Halving barely changes AFE output (paper footnote 1), unlike ANE.
func TestAFESurvivesHalving(t *testing.T) {
	cv := mergeVector(8, 8,
		[]int{1}, []int{1}, []int{1, 2}, []int{1},
		[]int{1}, []int{1}, []int{1, 2}, []int{1})
	got := make([]prefetch.Level, 8)
	e := defaultExtractor()
	e.ExtractRow(cv, 0, got)
	before1, before2 := got[1], got[2]
	cv.HalveRow(0)
	e.ExtractRow(cv, 0, got)
	if got[1] != before1 {
		t.Errorf("offset 1 changed across halving: %v -> %v", before1, got[1])
	}
	if got[2] != before2 {
		t.Errorf("offset 2 changed across halving: %v -> %v", before2, got[2])
	}
}

// TestMinCountForUnreachableThreshold pins the pre-scaled threshold
// when even a saturated counter falls short: it is one past the counter
// maximum, so no lane compares at or above it.
func TestMinCountForUnreachableThreshold(t *testing.T) {
	if got := minCountFor(100, 0.5, 31); got != 32 {
		t.Errorf("minCountFor(100, 0.5, 31) = %d, want 32", got)
	}
	if got := minCountFor(40, 0.5, 31); got != 20 {
		t.Errorf("minCountFor(40, 0.5, 31) = %d, want 20", got)
	}
}
