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
