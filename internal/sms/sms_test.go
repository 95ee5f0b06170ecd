package sms

import (
	"testing"

	"pmp/internal/mem"
)

func smallConfig() Config {
	return Config{
		Region: mem.NewRegion(mem.DefaultRegion),
		FTSets: 2, FTWays: 2,
		ATSets: 1, ATWays: 2,
	}
}

func addrOf(region uint64, offset int) mem.Addr {
	return mem.Addr(region*mem.PageBytes + uint64(offset)*mem.LineBytes)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{FTSets: 0, FTWays: 1, ATSets: 1, ATWays: 1},
		{FTSets: 3, FTWays: 1, ATSets: 1, ATWays: 1},
		{FTSets: 1, FTWays: 0, ATSets: 1, ATWays: 1},
		{FTSets: 1, FTWays: 1, ATSets: 0, ATWays: 1},
		{FTSets: 1, FTWays: 1, ATSets: 5, ATWays: 1},
		{FTSets: 1, FTWays: 1, ATSets: 1, ATWays: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestFirstAccessIsTrigger(t *testing.T) {
	f := New(smallConfig())
	trig, isTrig, _ := f.Observe(0x400, addrOf(5, 7))
	if !isTrig {
		t.Fatal("first access to a region should be a trigger")
	}
	if trig.RegionID != 5 || trig.Offset != 7 || trig.PC != 0x400 {
		t.Errorf("trigger = %+v", trig)
	}
	// Second access to the same line: still filtering, not a trigger.
	if _, isTrig, _ := f.Observe(0x404, addrOf(5, 7)); isTrig {
		t.Error("repeat access to trigger line should not re-trigger")
	}
}

func TestAccumulationAndEvictClose(t *testing.T) {
	f := New(smallConfig())
	f.Observe(0x400, addrOf(5, 7)) // trigger
	f.Observe(0x404, addrOf(5, 9)) // promotes to AT
	f.Observe(0x408, addrOf(5, 12))
	p, ok := f.OnEvict(addrOf(5, 0))
	if !ok {
		t.Fatal("eviction should close the accumulating pattern")
	}
	if p.RegionID != 5 || p.Trigger != 7 || p.PC != 0x400 {
		t.Errorf("pattern = %+v", p)
	}
	want := mem.BitVectorOf(mem.LinesPerPage, 7, 9, 12)
	if p.Bits != want {
		t.Errorf("bits = %v, want %v", p.Bits, want)
	}
	// Anchored form puts the trigger at position 0.
	if a := p.Anchored(); !a.Test(0) || !a.Test(2) || !a.Test(5) {
		t.Errorf("anchored = %v", a)
	}
	// The region is gone; a new access re-triggers.
	if _, isTrig, _ := f.Observe(0x40c, addrOf(5, 3)); !isTrig {
		t.Error("region should re-trigger after close")
	}
}

func TestEvictOfFilteredRegionDropsSilently(t *testing.T) {
	f := New(smallConfig())
	f.Observe(0x400, addrOf(5, 7))
	if _, ok := f.OnEvict(addrOf(5, 7)); ok {
		t.Error("single-access region should not produce a pattern")
	}
	if _, isTrig, _ := f.Observe(0x400, addrOf(5, 7)); !isTrig {
		t.Error("region should re-trigger after FT drop")
	}
}

func TestEvictUnknownRegion(t *testing.T) {
	f := New(smallConfig())
	if _, ok := f.OnEvict(addrOf(99, 0)); ok {
		t.Error("unknown region eviction should be a no-op")
	}
}

func TestATDisplacementClosesPattern(t *testing.T) {
	f := New(smallConfig()) // AT: 1 set x 2 ways
	// Fill the AT with two accumulating regions.
	for r := uint64(1); r <= 2; r++ {
		f.Observe(0x400, addrOf(r, 0))
		f.Observe(0x404, addrOf(r, 1))
	}
	// A third promotion displaces the LRU entry (region 1).
	f.Observe(0x408, addrOf(3, 0))
	_, _, closed := f.Observe(0x40c, addrOf(3, 2))
	if len(closed) != 1 {
		t.Fatalf("displacement should close one pattern, got %d", len(closed))
	}
	if closed[0].RegionID != 1 {
		t.Errorf("closed region %d, want 1 (LRU)", closed[0].RegionID)
	}
}

func TestFTDisplacementIsSilent(t *testing.T) {
	cfg := smallConfig() // FT: 2 sets x 2 ways
	f := New(cfg)
	// Regions 0,2,4,6 all map to FT set 0. Three triggers displace one.
	for _, r := range []uint64{0, 2, 4} {
		_, isTrig, closed := f.Observe(0x400, addrOf(r, 0))
		if !isTrig {
			t.Fatalf("region %d should trigger", r)
		}
		if len(closed) != 0 {
			t.Fatalf("FT displacement should not close patterns")
		}
	}
	// Region 0 was displaced: it triggers again.
	if _, isTrig, _ := f.Observe(0x400, addrOf(0, 1)); !isTrig {
		t.Error("displaced region should re-trigger")
	}
}

func TestPatternPCIsTriggerPC(t *testing.T) {
	f := New(smallConfig())
	f.Observe(0x111, addrOf(7, 3))
	f.Observe(0x222, addrOf(7, 4))
	f.Observe(0x333, addrOf(7, 5))
	p, ok := f.OnEvict(addrOf(7, 3))
	if !ok || p.PC != 0x111 {
		t.Errorf("pattern PC = %#x, want trigger PC 0x111", p.PC)
	}
}

func TestSmallerRegions(t *testing.T) {
	cfg := smallConfig()
	cfg.Region = mem.NewRegion(1024) // 16 lines
	f := New(cfg)
	f.Observe(1, 1024*3+64*15) // region 3, offset 15
	f.Observe(2, 1024*3+64*2)  // offset 2
	p, ok := f.OnEvict(1024 * 3)
	if !ok {
		t.Fatal("pattern should close")
	}
	if p.Bits.Len() != 16 || !p.Bits.Test(15) || !p.Bits.Test(2) {
		t.Errorf("pattern = %v", p.Bits)
	}
	if p.Trigger != 15 {
		t.Errorf("trigger = %d, want 15", p.Trigger)
	}
}

func TestStorageBitsPaperGeometry(t *testing.T) {
	// Paper Table III: FT 8x8 totals 376 bytes; AT 2x16 totals 456 bytes.
	// Our accounting: FT entry = 33+5+6+3 = 47b; 64 entries = 3008b = 376B.
	// AT entry = 35+5+64+6+4 = 114b; 32 entries = 3648b = 456B.
	f := New(DefaultConfig())
	want := 64*47 + 32*114
	if got := f.StorageBits(); got != want {
		t.Errorf("StorageBits() = %d, want %d", got, want)
	}
	if got := f.StorageBits() / 8; got != 376+456 {
		t.Errorf("bytes = %d, want 832", got)
	}
}

func TestManyRegionsNoCrossTalk(t *testing.T) {
	f := New(DefaultConfig())
	// Interleave accesses to many regions; each should accumulate its
	// own offsets only.
	for r := uint64(0); r < 8; r++ {
		f.Observe(r, addrOf(r, int(r)))
		f.Observe(r, addrOf(r, int(r)+1))
	}
	for r := uint64(0); r < 8; r++ {
		p, ok := f.OnEvict(addrOf(r, 0))
		if !ok {
			t.Fatalf("region %d should be accumulating", r)
		}
		want := mem.BitVectorOf(mem.LinesPerPage, int(r), int(r)+1)
		if p.Bits != want {
			t.Errorf("region %d bits = %v, want %v", r, p.Bits, want)
		}
	}
}
