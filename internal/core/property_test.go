package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// TestPMPRandomStreamInvariants hammers PMP with arbitrary access
// streams and checks the safety invariants the simulator relies on:
// no panics, line-aligned targets, valid levels, and no duplicate
// targets within a drain window.
func TestPMPRandomStreamInvariants(t *testing.T) {
	f := func(seed int64, schemeSel, featSel uint8) bool {
		cfg := DefaultConfig()
		cfg.Scheme = []Scheme{AFE, ANE, ARE}[int(schemeSel)%3]
		cfg.Feature = []FeatureMode{DualTables, OPTOnly, PPTOnly, Combined}[int(featSel)%4]
		p := New(cfg)
		rng := rand.New(rand.NewSource(seed))

		for i := 0; i < 3000; i++ {
			pc := uint64(0x400000 + rng.Intn(16)*4)
			addr := mem.Addr(rng.Int63n(1 << 30))
			p.Train(prefetch.Access{PC: pc, Addr: addr})
			if rng.Intn(4) == 0 {
				p.OnEvict(mem.Addr(rng.Int63n(1 << 30)).Line())
			}
			for _, r := range p.IssueInto(nil, rng.Intn(9)) {
				if r.Addr != r.Addr.Line() {
					t.Logf("unaligned target %#x", uint64(r.Addr))
					return false
				}
				if r.Level != prefetch.LevelL1 && r.Level != prefetch.LevelL2 && r.Level != prefetch.LevelLLC {
					t.Logf("invalid level %v", r.Level)
					return false
				}
			}
			if rng.Intn(16) == 0 {
				// Requeue a random plausible address; must never panic.
				p.Requeue(prefetch.Request{Addr: addr.Line(), Level: prefetch.LevelL2})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDesignBRandomStreamInvariants does the same for Design B.
func TestDesignBRandomStreamInvariants(t *testing.T) {
	f := func(seed int64, waysSel uint8) bool {
		cfg := DefaultDesignBConfig()
		cfg.Ways = []int{1, 8, 32}[int(waysSel)%3]
		d := NewDesignB(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			d.Train(prefetch.Access{
				PC:   uint64(0x400000 + rng.Intn(8)*4),
				Addr: mem.Addr(rng.Int63n(1 << 28)),
			})
			for _, r := range d.IssueInto(nil, 8) {
				if r.Addr != r.Addr.Line() {
					return false
				}
			}
			if rng.Intn(4) == 0 {
				d.OnEvict(mem.Addr(rng.Int63n(1 << 28)).Line())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPMPNeverPrefetchesTriggerLine asserts the hard rule from §IV-B
// across schemes: the prediction made for a fresh region's trigger
// access never targets the trigger line itself. Each probe uses a
// never-before-seen region and drains the full prediction immediately,
// so the issued requests belong to exactly that prediction.
func TestPMPNeverPrefetchesTriggerLine(t *testing.T) {
	for _, scheme := range []Scheme{AFE, ANE, ARE} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.ANEL1 = 2
		cfg.ANEL2 = 1 // make ANE predict readily at short training
		p := New(cfg)
		rng := rand.New(rand.NewSource(int64(scheme) + 5))

		// Train on dense region patterns so predictions fire.
		for r := uint64(0); r < 30; r++ {
			for off := 0; off < 8; off++ {
				p.Train(prefetch.Access{PC: 0x400, Addr: mem.Addr(r*mem.PageBytes + uint64(off*mem.LineBytes))})
				p.IssueInto(nil, 64)
			}
			p.OnEvict(mem.Addr(r * mem.PageBytes))
		}

		for i := 0; i < 200; i++ {
			region := uint64(1_000_000 + i) // fresh region every probe
			trig := rng.Intn(64)
			p.Train(prefetch.Access{PC: 0x400, Addr: mem.Addr(region*mem.PageBytes + uint64(trig*mem.LineBytes))})
			for _, r := range p.IssueInto(nil, 64) {
				if r.Addr.PageID() == region && r.Addr.PageOffset() == trig {
					t.Fatalf("scheme %v prefetched the trigger line (region %d offset %d)",
						scheme, region, trig)
				}
			}
		}
	}
}
