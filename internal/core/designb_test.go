package core

import (
	"testing"

	"pmp/internal/prefetch"
)

func TestDesignBConfigValidate(t *testing.T) {
	if err := DefaultDesignBConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for _, tc := range []struct {
		label string
		mut   func(*DesignBConfig)
	}{
		{"zero ways", func(c *DesignBConfig) { c.Ways = 0 }},
		{"inverted thresholds", func(c *DesignBConfig) { c.L2Threshold = 99 }},
		{"region of one line", func(c *DesignBConfig) { c.RegionBytes = 64 }},
		{"region of 100 bytes", func(c *DesignBConfig) { c.RegionBytes = 100 }},
		{"region not a power of two", func(c *DesignBConfig) { c.RegionBytes = 3072 }},
		{"region larger than a page", func(c *DesignBConfig) { c.RegionBytes = 8192 }},
		{"zero counter bits", func(c *DesignBConfig) { c.CounterBits = 0 }},
		{"17 counter bits", func(c *DesignBConfig) { c.CounterBits = 17 }},
		{"zero PB entries", func(c *DesignBConfig) { c.PBEntries = 0 }},
		{"negative PB entries", func(c *DesignBConfig) { c.PBEntries = -1 }},
		{"zero FT ways", func(c *DesignBConfig) { c.FTWays = 0 }},
	} {
		c := DefaultDesignBConfig()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s should be invalid: %+v", tc.label, c)
		}
	}
	// The inclusive end of each bound.
	for _, tc := range []struct {
		label string
		mut   func(*DesignBConfig)
	}{
		{"one way", func(c *DesignBConfig) { c.Ways = 1 }},
		{"two-line region", func(c *DesignBConfig) { c.RegionBytes = 128 }},
		{"one counter bit", func(c *DesignBConfig) { c.CounterBits = 1 }},
		{"16 counter bits", func(c *DesignBConfig) { c.CounterBits = 16 }},
		{"one PB entry", func(c *DesignBConfig) { c.PBEntries = 1 }},
		{"equal thresholds", func(c *DesignBConfig) { c.L2Threshold = c.L1Threshold }},
	} {
		c := DefaultDesignBConfig()
		tc.mut(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", tc.label, err)
		}
	}
}

// TestDefaultDesignBConfig pins §V-E1's Design B: PMP's capture geometry
// and prefetch buffer, an 8-way pattern cache of 5-bit counters, and
// ANE's 16/5 replay thresholds.
func TestDefaultDesignBConfig(t *testing.T) {
	want := DesignBConfig{
		RegionBytes: 4096, Ways: 8, CounterBits: 5,
		L1Threshold: 16, L2Threshold: 5, PBEntries: 16,
		FTSets: 8, FTWays: 8, ATSets: 2, ATWays: 16,
	}
	if got := DefaultDesignBConfig(); got != want {
		t.Errorf("DefaultDesignBConfig() = %+v, want %+v", got, want)
	}
}

// designBSeq teaches d each pattern once, in order, in fresh regions
// from base up. Every pattern triggers at offset 0, so all share one
// set of the pattern cache.
func designBSeq(d *DesignB, base uint64, patterns ...[]int) {
	for i, offs := range patterns {
		teach(d, 0x400, base+uint64(i), 1, offs)
	}
}

// designBPredict returns what a trigger at offset 0 of a fresh region
// replays.
func designBPredict(d *DesignB, region uint64) []prefetch.Request {
	train(d, 0x400, regionAddr(region, 0))
	return d.IssueInto(nil, 64)
}

// wantReplay checks that reqs replay exactly the given offsets of
// region at one level.
func wantReplay(t *testing.T, label string, reqs []prefetch.Request, region uint64, level prefetch.Level, offsets ...int) {
	t.Helper()
	if len(reqs) != len(offsets) {
		t.Errorf("%s: replayed %v, want offsets %v at %v", label, reqs, offsets, level)
		return
	}
	for i, r := range reqs {
		if r.Addr != regionAddr(region, offsets[i]) || r.Level != level {
			t.Errorf("%s: request %d = %+v, want offset %d at %v", label, i, r, offsets[i], level)
		}
	}
}

var (
	patA = []int{0, 1}
	patB = []int{0, 2}
	patC = []int{0, 3}
	patX = []int{0, 4}
)

// TestDesignBThresholdsAreInclusive pins the ANE-style replay rule of
// §V-E1: a new pattern counts one occurrence, a counter equal to the
// L2C threshold replays to L2C, and one equal to the L1D threshold
// replays to L1D.
func TestDesignBThresholdsAreInclusive(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.L1Threshold, cfg.L2Threshold = 3, 2
	d := NewDesignB(cfg)
	designBSeq(d, 100, patA)
	wantReplay(t, "count 1", designBPredict(d, 900), 900, prefetch.LevelNone)
	designBSeq(d, 200, patA)
	wantReplay(t, "count 2", designBPredict(d, 901), 901, prefetch.LevelL2, 1)
	designBSeq(d, 300, patA)
	wantReplay(t, "count 3", designBPredict(d, 902), 902, prefetch.LevelL1, 1)
}

// TestDesignBCounterSaturates pins the repetition counter's width: it
// stops at 2^CounterBits-1, so a threshold above that is never reached.
func TestDesignBCounterSaturates(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.CounterBits = 2 // saturates at 3
	cfg.L1Threshold, cfg.L2Threshold = 4, 1
	d := NewDesignB(cfg)
	teach(d, 0x400, 100, 10, patA)
	wantReplay(t, "saturated", designBPredict(d, 900), 900, prefetch.LevelL2, 1)
}

// TestDesignBReplacesLRUPattern pins the pattern cache's LRU
// replacement. A repeat of a stored pattern refreshes it, so the next
// new pattern displaces the other one; without the repeat, the oldest
// goes.
func TestDesignBReplacesLRUPattern(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.Ways = 2
	cfg.L1Threshold, cfg.L2Threshold = 3, 3 // no replay while teaching
	d := NewDesignB(cfg)
	designBSeq(d, 100, patA, patB, patA, patC, patA) // C displaces B
	wantReplay(t, "refreshed A", designBPredict(d, 900), 900, prefetch.LevelL1, 1)

	d = NewDesignB(cfg)
	designBSeq(d, 100, patA, patB, patC, patB, patB) // C displaces A
	wantReplay(t, "B after C", designBPredict(d, 900), 900, prefetch.LevelL1, 2)
}

// TestDesignBReplayRefreshesLRU pins that replaying a pattern counts as
// a use: the replayed pattern outlives one stored after it.
func TestDesignBReplayRefreshesLRU(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.Ways = 2
	cfg.L1Threshold, cfg.L2Threshold = 2, 2
	d := NewDesignB(cfg)
	designBSeq(d, 100, patX, patA, patA, patB) // A (count 2) older than B
	designBPredict(d, 900)                     // replays A
	designBSeq(d, 200, patC)                   // displaces B, not A
	wantReplay(t, "replayed A", designBPredict(d, 901), 901, prefetch.LevelL1, 1)
}

// TestDesignBTieGoesToNewerPattern pins how Design B picks among stored
// patterns with equal counters: the first way in set order wins. Sets
// fill from their last way, so while a set fills, the newer pattern
// wins a tie. A repeat increments its own entry and stores no copy.
func TestDesignBTieGoesToNewerPattern(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.Ways = 2
	cfg.L1Threshold, cfg.L2Threshold = 2, 2
	d := NewDesignB(cfg)
	designBSeq(d, 100, patA, patB, patA, patB)
	wantReplay(t, "tie", designBPredict(d, 900), 900, prefetch.LevelL1, 2)
}

// TestDesignBEmptyReplayKeepsBuffer pins, as for PMP, that a trigger
// with nothing to replay stores nothing in the prefetch buffer: it
// neither displaces a buffered region nor leaves the last replay's
// targets behind.
func TestDesignBEmptyReplayKeepsBuffer(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.PBEntries = 1
	cfg.L1Threshold, cfg.L2Threshold = 2, 2
	d := NewDesignB(cfg)
	designBSeq(d, 100, patA, patA, patB)
	teach(d, 0x400, 150, 1, []int{40, 41}) // one occurrence: below threshold
	train(d, 0x400, regionAddr(900, 0))    // replays A, not yet drained
	train(d, 0x400, regionAddr(901, 40))   // nothing to replay
	wantReplay(t, "buffered A", d.IssueInto(nil, 64), 900, prefetch.LevelL1, 1)

	designBSeq(d, 200, patB) // B reaches count 2 but is newer: the tie goes to B
	wantReplay(t, "B alone", designBPredict(d, 902), 902, prefetch.LevelL1, 2)
}

// TestDesignBRequeueAndResume pins Design B's use of the prefetch
// buffer (§IV-B): a request handed back is issued again, and a
// re-access to a buffered region resumes its draining first. A trigger
// is not a re-access: one that replays nothing leaves the region's
// earlier entry where it was.
func TestDesignBRequeueAndResume(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.L1Threshold, cfg.L2Threshold = 2, 2
	d := NewDesignB(cfg)
	teach(d, 0x400, 100, 2, []int{0, 1, 2, 3})
	reqs := designBPredict(d, 900)
	if len(reqs) != 3 {
		t.Fatalf("replayed %v, want 3 targets", reqs)
	}
	d.Requeue(reqs[0])
	if again := d.IssueInto(nil, 64); len(again) != 1 || again[0] != reqs[0] {
		t.Errorf("after Requeue issued %v, want %v", again, reqs[0])
	}

	train(d, 0x400, regionAddr(901, 0))
	train(d, 0x400, regionAddr(902, 0))
	d.OnEvict(regionAddr(901, 0))        // drops 901's filter entry
	train(d, 0x400, regionAddr(901, 40)) // so this triggers, replaying nothing
	if r := d.IssueInto(nil, 1); len(r) != 1 || r[0].Addr != regionAddr(902, 1) {
		t.Errorf("first request after the trigger = %v, want region 902 offset 1", r)
	}
	train(d, 0x400, regionAddr(901, 41)) // resumes region 901
	if r := d.IssueInto(nil, 1); len(r) != 1 || r[0].Addr != regionAddr(901, 1) {
		t.Errorf("first request after re-access = %v, want region 901 offset 1", r)
	}
}

func TestDesignBLearnsIdenticalPatterns(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.L1Threshold = 4
	cfg.L2Threshold = 2
	d := NewDesignB(cfg)
	teach(d, 0x400, 0, 10, []int{0, 1, 2})
	train(d, 0x400, regionAddr(1000, 0))
	reqs := d.IssueInto(nil, 64)
	if len(reqs) != 2 {
		t.Fatalf("issued %d, want 2", len(reqs))
	}
	for _, r := range reqs {
		if r.Level != prefetch.LevelL1 {
			t.Errorf("level = %v, want L1D above threshold", r.Level)
		}
	}
}

func TestDesignBColdStart(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.L1Threshold = 16
	cfg.L2Threshold = 5
	d := NewDesignB(cfg)
	teach(d, 0x400, 0, 2, []int{0, 1}) // counter = 2 < L2 threshold
	train(d, 0x400, regionAddr(1000, 0))
	if reqs := d.IssueInto(nil, 64); len(reqs) != 0 {
		t.Errorf("below-threshold pattern prefetched: %v", reqs)
	}
}

// Design B's weakness (paper §V-E1): non-identical patterns thrash the
// set. With 1 way, alternating patterns never accumulate a counter.
func TestDesignBThrashing(t *testing.T) {
	cfg := DefaultDesignBConfig()
	cfg.Ways = 1
	cfg.L1Threshold = 4
	cfg.L2Threshold = 2
	d := NewDesignB(cfg)
	// Alternate two different patterns with the same trigger offset.
	for r := 0; r < 40; r++ {
		offs := []int{0, 1}
		if r%2 == 1 {
			offs = []int{0, 2}
		}
		teach(d, 0x400, uint64(r*2+1), 1, offs)
	}
	train(d, 0x400, regionAddr(9000, 0))
	if reqs := d.IssueInto(nil, 64); len(reqs) != 0 {
		t.Errorf("1-way Design B should thrash, issued %v", reqs)
	}
	// With more ways, both patterns persist and one reaches threshold.
	cfg.Ways = 8
	d = NewDesignB(cfg)
	for r := 0; r < 40; r++ {
		offs := []int{0, 1}
		if r%2 == 1 {
			offs = []int{0, 2}
		}
		teach(d, 0x400, uint64(r*2+1), 1, offs)
	}
	train(d, 0x400, regionAddr(9000, 0))
	if reqs := d.IssueInto(nil, 64); len(reqs) == 0 {
		t.Error("8-way Design B should retain patterns")
	}
}

func TestDesignBName(t *testing.T) {
	if got := NewDesignB(DefaultDesignBConfig()).Name(); got != "designb-8w" {
		t.Errorf("name = %q", got)
	}
}

// Name must be computed once at construction, not formatted per call
// (prefetcherimpl contract: names key result maps on hot paths).
func TestDesignBNameAllocFree(t *testing.T) {
	d := NewDesignB(DefaultDesignBConfig())
	first := d.Name()
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Name() }); allocs != 0 {
		t.Errorf("Name() allocates %.0f times per call, want 0", allocs)
	}
	if again := d.Name(); again != first {
		t.Errorf("Name() unstable: %q then %q", first, again)
	}
}

// No registry test or golden digest sees Design B's budget, so it is
// pinned here: the pattern cache grows with ways, and the prefetch
// buffer and capture tables with the region and buffer sizes.
func TestDesignBStorageGrowsWithWays(t *testing.T) {
	for _, tc := range []struct {
		ways, region, pb, want int
	}{
		{8, 4096, 16, 46_176},
		{512, 4096, 16, 2_565_216},
		{8, 1024, 4, 8_472},
	} {
		c := DefaultDesignBConfig()
		c.Ways, c.RegionBytes, c.PBEntries = tc.ways, tc.region, tc.pb
		if got := NewDesignB(c).StorageBits(); got != tc.want {
			t.Errorf("%d ways, %d-byte regions, %d PB entries: StorageBits = %d, want %d",
				tc.ways, tc.region, tc.pb, got, tc.want)
		}
	}
}

func TestDesignBOnFillIgnored(t *testing.T) {
	d := NewDesignB(DefaultDesignBConfig())
	d.OnFill(0, prefetch.LevelL1, false) // must not panic
}
