package tlb

import (
	"testing"

	"pmp/internal/mem"
)

func addrOfPage(p uint64) mem.Addr { return mem.Addr(p * mem.PageBytes) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []Config{
		{L1Entries: 0, L2Entries: 8},
		{L1Entries: 8, L2Entries: 0},
		{L1Entries: 64, L2Entries: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	tl := New(DefaultConfig())
	a := addrOfPage(42)
	if lat := tl.Translate(a); lat != 68 { // L2Latency + WalkCost
		t.Errorf("cold translate latency = %d, want 68", lat)
	}
	if lat := tl.Translate(a); lat != 0 {
		t.Errorf("warm translate latency = %d, want 0", lat)
	}
	s := tl.Stats()
	if s.Accesses != 2 || s.L1Misses != 1 || s.L2Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestL2HitPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Entries = 2 // tiny DTLB so entries fall out fast
	tl := New(cfg)
	// Touch enough pages to displace page 0 from the DTLB but not the
	// L2 TLB.
	tl.Translate(addrOfPage(0))
	for p := uint64(1); p < 64; p++ {
		tl.Translate(addrOfPage(p))
	}
	lat := tl.Translate(addrOfPage(0))
	if lat != cfg.L2Latency && lat != 0 {
		// 0 possible only if page 0 survived hashing; with 64 fills over
		// 2 slots that is effectively impossible.
		t.Errorf("L2-hit latency = %d, want %d", lat, cfg.L2Latency)
	}
}

func TestSameLineSamePage(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Translate(addrOfPage(7))
	if lat := tl.Translate(addrOfPage(7) + 4032); lat != 0 {
		t.Errorf("intra-page access missed: %d", lat)
	}
}

func TestHugeFootprintWalks(t *testing.T) {
	tl := New(DefaultConfig())
	// A footprint far beyond 1536 pages must keep walking.
	for p := uint64(0); p < 20_000; p++ {
		tl.Translate(addrOfPage(p))
	}
	s := tl.Stats()
	if s.L2Misses < 15_000 {
		t.Errorf("only %d walks over a 20000-page cold footprint", s.L2Misses)
	}
}
