package ghb

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// miss drives one L1D miss through the prefetcher.
func miss(p *Prefetcher, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(line * mem.LineBytes), Hit: false})
	return p.IssueInto(nil, 16)
}

func TestGHBReplaysTemporalSequence(t *testing.T) {
	p := New(DefaultConfig())
	seq := []uint64{10, 500, 23, 9000, 41} // irregular but repeating
	for _, l := range seq {
		miss(p, l)
	}
	// Second pass: seeing 10 again should prefetch what followed (500, 23).
	got := miss(p, 10)
	if len(got) == 0 {
		t.Fatal("repeated temporal stream should prefetch")
	}
	want := map[uint64]bool{500: true, 23: true}
	for _, r := range got {
		if !want[r.Addr.LineID()] {
			t.Errorf("unexpected target line %d", r.Addr.LineID())
		}
	}
}

func TestGHBIgnoresHits(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(i * 64), Hit: true})
	}
	if got := p.IssueInto(nil, 16); len(got) != 0 {
		t.Errorf("hits should not train the GHB, issued %v", got)
	}
}

func TestGHBColdSilent(t *testing.T) {
	p := New(DefaultConfig())
	if got := miss(p, 42); len(got) != 0 {
		t.Errorf("first occurrence issued %v", got)
	}
}

func TestGHBStaleLinksRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferSize = 64
	p := New(cfg)
	miss(p, 7)
	// Overflow the buffer so position links to 7 become stale.
	for i := uint64(1000); i < 1200; i++ {
		miss(p, i)
	}
	// Seeing 7 again must not follow the overwritten chain into garbage
	// (no panic, and any targets must be real recent lines).
	got := miss(p, 7)
	for _, r := range got {
		if r.Addr.LineID() < 1000 {
			t.Errorf("followed stale chain to line %d", r.Addr.LineID())
		}
	}
}

func TestGHBDepthFollowsOlderOccurrences(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depth = 2
	cfg.Width = 1
	p := New(cfg)
	// Two different successors across two passes: both chains visited.
	for _, l := range []uint64{5, 100, 6, 5, 200, 6} {
		miss(p, l)
	}
	got := miss(p, 5)
	seen := map[uint64]bool{}
	for _, r := range got {
		seen[r.Addr.LineID()] = true
	}
	if !seen[200] || !seen[100] {
		t.Errorf("depth-2 chain should cover both successors, got %v", seen)
	}
}

func TestGHBInterface(t *testing.T) {
	var p prefetch.Prefetcher = New(DefaultConfig())
	if p.Name() != "ghb" {
		t.Error("wrong name")
	}
	if p.StorageBits() <= 0 {
		t.Error("storage must be positive")
	}
	p.OnEvict(0)
	p.OnFill(0, prefetch.LevelL1, true)
}
