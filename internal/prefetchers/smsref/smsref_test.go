package smsref

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func addr2k(region uint64, off int) mem.Addr {
	return mem.Addr(region*2048 + uint64(off)*mem.LineBytes)
}

func teach(p *Prefetcher, pc uint64, start uint64, rounds int, offs []int) {
	for r := 0; r < rounds; r++ {
		region := start + uint64(r)
		for _, o := range offs {
			p.Train(prefetch.Access{PC: pc, Addr: addr2k(region, o)})
			p.IssueInto(nil, 64)
		}
		p.OnEvict(addr2k(region, offs[0]))
	}
}

func TestSMSReplaysPattern(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 3, []int{3, 4, 5})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(1000, 3)})
	got := p.IssueInto(nil, 64)
	if len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	want := map[mem.Addr]bool{addr2k(1000, 4): true, addr2k(1000, 5): true}
	for _, r := range got {
		if !want[r.Addr] {
			t.Errorf("unexpected target %#x", uint64(r.Addr))
		}
		if r.Level != prefetch.LevelL1 {
			t.Errorf("SMS fills L1D, got %v", r.Level)
		}
	}
}

func TestSMSEventNeedsSamePCAndOffset(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 3, []int{3, 4})
	// Different trigger offset: different event, no replay.
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(1000, 7)})
	if got := p.IssueInto(nil, 64); len(got) != 0 {
		t.Errorf("different offset should miss the PHT, issued %v", got)
	}
	// Different PC: different event.
	p.Train(prefetch.Access{PC: 0x999, Addr: addr2k(2000, 3)})
	if got := p.IssueInto(nil, 64); len(got) != 0 {
		t.Errorf("different PC should miss the PHT, issued %v", got)
	}
}

func TestSMSLatestPatternWins(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 2, []int{3, 4})
	teach(p, 0x400, 100, 2, []int{3, 9}) // same event, new pattern
	p.Train(prefetch.Access{PC: 0x400, Addr: addr2k(1000, 3)})
	got := p.IssueInto(nil, 64)
	if len(got) != 1 || got[0].Addr != addr2k(1000, 9) {
		t.Errorf("replay should use the latest pattern, got %v", got)
	}
}

func TestSMSStorage(t *testing.T) {
	p := New()
	kb := float64(p.StorageBits()) / 8 / 1024
	if kb < 10 || kb > 30 {
		t.Errorf("storage = %.1f KB, expected mid-range PHT", kb)
	}
}
