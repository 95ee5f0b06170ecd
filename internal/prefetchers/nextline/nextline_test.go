package nextline

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func TestNextLinePrefetchesFollowingLines(t *testing.T) {
	p := New(2)
	p.Train(prefetch.Access{PC: 1, Addr: 0x1000})
	got := p.IssueInto(nil, 8)
	if len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	if got[0].Addr != 0x1040 || got[1].Addr != 0x1080 {
		t.Errorf("targets = %#x, %#x", uint64(got[0].Addr), uint64(got[1].Addr))
	}
	for _, r := range got {
		if r.Level != prefetch.LevelL1 {
			t.Errorf("level = %v, want L1D", r.Level)
		}
	}
}

func TestNextLineDegreeClamped(t *testing.T) {
	p := New(0)
	p.Train(prefetch.Access{Addr: 0})
	if got := p.IssueInto(nil, 8); len(got) != 1 {
		t.Errorf("degree 0 should clamp to 1, issued %d", len(got))
	}
}

func TestNextLineDedup(t *testing.T) {
	p := New(1)
	p.Train(prefetch.Access{Addr: 0x1000})
	p.Train(prefetch.Access{Addr: 0x1008}) // same line
	if got := p.IssueInto(nil, 8); len(got) != 1 {
		t.Errorf("duplicate target should be suppressed, issued %d", len(got))
	}
}

func TestNextLineInterface(t *testing.T) {
	var p prefetch.Prefetcher = New(1)
	if p.Name() != "nextline" {
		t.Error("wrong name")
	}
	if p.StorageBits() <= 0 {
		t.Error("storage should be positive (request queue)")
	}
	p.OnEvict(mem.Addr(0))
	p.OnFill(0, prefetch.LevelL1, true)
}
