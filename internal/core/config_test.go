package core

import (
	"testing"

	"pmp/internal/mem"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.RegionBytes = 100 },
		func(c *Config) { c.RegionBytes = 64 },
		func(c *Config) { c.RegionBytes = 8192 },
		func(c *Config) { c.RegionBytes = 3072 },
		// Only the region bounds reject these: at the default monitoring
		// range and trigger width, 64 and 8192 fail later checks too.
		func(c *Config) { c.RegionBytes = 64; c.MonitoringRange = 1 },
		func(c *Config) { c.RegionBytes = 8192; c.TriggerBits = 7 },
		func(c *Config) { c.TriggerBits = 5 }, // below log2(64)
		func(c *Config) { c.TriggerBits = 13 },
		func(c *Config) { c.PCBits = 0 },
		func(c *Config) { c.PCBits = 17 },
		func(c *Config) { c.OPTCounterBits = 0 },
		func(c *Config) { c.OPTCounterBits = 17 },
		func(c *Config) { c.PPTCounterBits = 0 },
		func(c *Config) { c.PPTCounterBits = 17 },
		func(c *Config) { c.MonitoringRange = 3 },
		func(c *Config) { c.MonitoringRange = 0 },
		func(c *Config) { c.TL1D = 0.1; c.TL2C = 0.5 },
		func(c *Config) { c.TL2C = 0 },
		func(c *Config) { c.TL1D = 1.5 },
		func(c *Config) { c.PBEntries = 0 },
		func(c *Config) { c.Scheme = Scheme(9) },
		func(c *Config) { c.Feature = FeatureMode(9) },
		func(c *Config) { c.LowLevelDegree = -1 },
		func(c *Config) { c.FTSets = 3 },
		func(c *Config) { c.ATWays = 0 },
	}
	for i, m := range mutate {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid: %+v", i, c)
		}
	}
}

// TestCounterBitsCapIsPackedWidth pins the bound that keeps every legal
// configuration on the packed pattern engine, for both tables: counters
// mem.MaxPackedBits wide construct, train and predict; one bit wider is
// rejected.
func TestCounterBitsCapIsPackedWidth(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config, int)
	}{
		{"OPTCounterBits", func(c *Config, bits int) { c.OPTCounterBits = bits }},
		{"PPTCounterBits", func(c *Config, bits int) { c.PPTCounterBits = bits }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg, mem.MaxPackedBits)
		p := New(cfg)
		teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})
		train(p, 0x400, regionAddr(1000, 0))
		if p.Stats().PatternsMerged == 0 || len(p.IssueInto(nil, 64)) == 0 {
			t.Errorf("%s = %d: PMP did not train and predict", tc.name, mem.MaxPackedBits)
		}
		tc.set(&cfg, mem.MaxPackedBits+1)
		if cfg.Validate() == nil {
			t.Errorf("%s = %d accepted past the packed engine's width", tc.name, mem.MaxPackedBits+1)
		}
	}
}

func TestPatternLengths(t *testing.T) {
	c := DefaultConfig()
	if c.PatternLen() != 64 || c.PPTLen() != 32 {
		t.Errorf("lengths = %d/%d, want 64/32", c.PatternLen(), c.PPTLen())
	}
	c.RegionBytes = 2048
	c.TriggerBits = 5
	if c.PatternLen() != 32 || c.PPTLen() != 16 {
		t.Errorf("2KB lengths = %d/%d, want 32/16", c.PatternLen(), c.PPTLen())
	}
}

// Paper Table III: the default configuration totals ~4.3KB with the
// exact per-structure byte counts listed.
func TestStorageMatchesTableIII(t *testing.T) {
	s := DefaultConfig().Storage()
	checks := []struct {
		name string
		bits int
		want int // bytes
	}{
		{"filter table", s.FilterTableBits, 376},
		{"accumulation table", s.AccumTableBits, 456},
		{"OPT", s.OPTBits, 2560},
		{"PPT", s.PPTBits, 640},
		{"prefetch buffer", s.PrefetchBufBits, 332},
	}
	for _, c := range checks {
		if got := c.bits / 8; got != c.want {
			t.Errorf("%s = %d bytes, want %d", c.name, got, c.want)
		}
	}
	if kb := s.TotalBytes() / 1024; kb < 4.2 || kb > 4.4 {
		t.Errorf("total = %.2f KB, want ~4.3", kb)
	}
}

// Paper Table IX: overheads for PMP-64/32/16 are ~4.3/2.5/1.6 KB.
func TestStorageTableIX(t *testing.T) {
	// The paper keeps the 6-bit trigger feature for the short-pattern
	// variants (Table X treats the width as an independent knob), which
	// is what reproduces Table IX's 2.5KB / 1.6KB totals.
	cases := []struct {
		region int
		minKB  float64
		maxKB  float64
	}{
		{4096, 4.2, 4.4},
		{2048, 2.4, 2.6},
		{1024, 1.5, 1.7},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		c.RegionBytes = tc.region
		if err := c.Validate(); err != nil {
			t.Fatalf("region %d: %v", tc.region, err)
		}
		kb := c.Storage().TotalBytes() / 1024
		if kb < tc.minKB || kb > tc.maxKB {
			t.Errorf("region %d: %.2f KB, want in [%.1f, %.1f]", tc.region, kb, tc.minKB, tc.maxKB)
		}
	}
}

// Paper §V-E4: 12-bit trigger offsets cost ~64x the default OPT.
func TestStorageGrowsExponentiallyWithTriggerBits(t *testing.T) {
	base := DefaultConfig()
	wide := DefaultConfig()
	wide.TriggerBits = 12
	ratio := float64(wide.Storage().OPTBits) / float64(base.Storage().OPTBits)
	if ratio != 64 {
		t.Errorf("OPT growth ratio = %v, want 64", ratio)
	}
}

// Paper §V-E3: the combined-feature table has 2^11 = 2048 entries vs 96
// for the dual structure.
func TestStorageCombinedFeature(t *testing.T) {
	c := DefaultConfig()
	c.Feature = Combined
	s := c.Storage()
	if s.PPTBits != 0 {
		t.Error("combined mode should have no PPT")
	}
	wantEntries := 2048
	if got := s.OPTBits / (64 * 5); got != wantEntries {
		t.Errorf("combined table entries = %d, want %d", got, wantEntries)
	}
}

func TestSchemeAndFeatureStrings(t *testing.T) {
	if AFE.String() != "AFE" || ANE.String() != "ANE" || ARE.String() != "ARE" {
		t.Error("scheme strings wrong")
	}
	if Scheme(9).String() != "invalid" {
		t.Error("invalid scheme string wrong")
	}
	for m, want := range map[FeatureMode]string{
		DualTables: "dual", OPTOnly: "opt-only", PPTOnly: "ppt-only",
		Combined: "combined", FeatureMode(9): "invalid",
	} {
		if m.String() != want {
			t.Errorf("FeatureMode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestStorageSmallerRegionsUseShorterTags(t *testing.T) {
	big := DefaultConfig()
	small := DefaultConfig()
	small.RegionBytes = 1024
	small.TriggerBits = 4
	if small.Storage().FilterTableBits >= big.Storage().FilterTableBits {
		// 1KB regions: more tag bits per entry (+2) but that's the only
		// growth; the FT entry also loses 2 offset bits, so equal.
		// Just sanity-check it's in a plausible band.
		diff := small.Storage().FilterTableBits - big.Storage().FilterTableBits
		if diff > 64*4 {
			t.Errorf("FT grew too much for small regions: %d bits", diff)
		}
	}
	_ = mem.LineBytes
}
