package bingo

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// addr2k builds an address within a 2KB Bingo region.
func addr2k(region uint64, offset int) mem.Addr {
	return mem.Addr(region*2048 + uint64(offset)*mem.LineBytes)
}

func teach(p *Prefetcher, pc uint64, start uint64, rounds int, offsets []int) {
	for r := 0; r < rounds; r++ {
		region := start + uint64(r)
		for _, o := range offsets {
			p.Train(prefetch.Access{PC: pc, Addr: addr2k(region, o)})
			p.IssueInto(nil, 64)
		}
		p.OnEvict(addr2k(region, offsets[0]))
	}
}

func TestBingoLongEventMatchFillsL1(t *testing.T) {
	p := New(DefaultConfig())
	// Train region 7 then revisit the same region with the same PC: the
	// long event (PC+Address) matches exactly.
	teach(p, 0x400, 7, 1, []int{3, 4, 5})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(7, 3)})
	got := p.IssueInto(nil, 64)
	if len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	for _, r := range got {
		if r.Level != prefetch.LevelL1 {
			t.Errorf("long-event match should fill L1D, got %v", r.Level)
		}
	}
	want := map[mem.Addr]bool{addr2k(7, 4): true, addr2k(7, 5): true}
	for _, r := range got {
		if !want[r.Addr] {
			t.Errorf("unexpected target %#x", uint64(r.Addr))
		}
	}
}

func TestBingoShortEventFallback(t *testing.T) {
	p := New(DefaultConfig())
	// Train several regions at trigger offset 3 with one PC; a fresh
	// region misses the long event but the short event (PC+Offset)
	// still hits via voting.
	teach(p, 0x400, 0, 6, []int{3, 4})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(5000, 3)})
	got := p.IssueInto(nil, 64)
	if len(got) == 0 {
		t.Fatal("short-event fallback should predict")
	}
	if got[0].Addr != addr2k(5000, 4) {
		t.Errorf("target = %#x, want offset 4 of the fresh region", uint64(got[0].Addr))
	}
	if got[0].Level != prefetch.LevelL1 {
		t.Errorf("unanimous vote should fill L1D, got %v", got[0].Level)
	}
}

func TestBingoVotingSplitsLevels(t *testing.T) {
	p := New(DefaultConfig())
	// Two pattern populations at the same (PC, offset): {3,4} always,
	// {3,10} rarely. Offset 4 gets majority -> L1; offset 10 minority ->
	// L2.
	teach(p, 0x400, 0, 6, []int{3, 4})
	teach(p, 0x400, 100, 1, []int{3, 10})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(5000, 3)})
	levels := map[mem.Addr]prefetch.Level{}
	for _, r := range p.IssueInto(nil, 64) {
		levels[r.Addr] = r.Level
	}
	if levels[addr2k(5000, 4)] != prefetch.LevelL1 {
		t.Errorf("majority offset level = %v, want L1D", levels[addr2k(5000, 4)])
	}
	if levels[addr2k(5000, 10)] != prefetch.LevelL2 {
		t.Errorf("minority offset level = %v, want L2C", levels[addr2k(5000, 10)])
	}
}

func TestBingoUntrainedSilent(t *testing.T) {
	p := New(DefaultConfig())
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(1, 0)})
	if got := p.IssueInto(nil, 64); len(got) != 0 {
		t.Errorf("untrained Bingo issued %v", got)
	}
}

func TestBingoStorageBudget(t *testing.T) {
	p := New(DefaultConfig())
	kb := float64(p.StorageBits()) / 8 / 1024
	// Paper Table V: 127.8KB for the enhanced version.
	if kb < 110 || kb > 145 {
		t.Errorf("storage = %.1f KB, want near 127.8", kb)
	}
}

func TestBingoConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		label string
		mut   func(*Config)
	}{
		{"non-power-of-two sets", func(c *Config) { c.PHTSets = 3 }},
		{"zero sets", func(c *Config) { c.PHTSets = 0 }},
		{"zero ways", func(c *Config) { c.PHTWays = 0 }},
		{"region of one line", func(c *Config) { c.RegionBytes = 64 }},
		{"region not a power of two", func(c *Config) { c.RegionBytes = 3072 }},
		{"region larger than a page", func(c *Config) { c.RegionBytes = 8192 }},
		{"non-power-of-two AT sets", func(c *Config) { c.ATSets = 3 }},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.label)
		}
	}
}

func TestBingoInterface(t *testing.T) {
	var p prefetch.Prefetcher = New(DefaultConfig())
	if p.Name() != "bingo" {
		t.Error("wrong name")
	}
	p.OnFill(0, prefetch.LevelL1, true) // ignored, must not panic
}

func TestBingoLongMatchRefreshesLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PHTSets = 1
	cfg.PHTWays = 2
	p := New(cfg)
	// Train two entries into the single set.
	teach(p, 0x400, 7, 1, []int{3, 4})
	teach(p, 0x404, 8, 1, []int{5, 6})
	// Use the first entry via a long-event match...
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(7, 3)})
	p.IssueInto(nil, 64)
	// ...then insert a third pattern: the victim must be the *unused*
	// second entry, not the just-matched first one.
	teach(p, 0x408, 9, 1, []int{1, 2})
	p.OnEvict(addr2k(7, 3)) // close region 7 so it can re-trigger
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(7, 3)})
	if got := p.IssueInto(nil, 64); len(got) == 0 {
		t.Error("recently matched entry was evicted (LRU not refreshed on use)")
	}
}
