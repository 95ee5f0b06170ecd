package dspatch

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func addr(region uint64, offset int) mem.Addr {
	return mem.Addr(region*mem.PageBytes + uint64(offset)*mem.LineBytes)
}

// teach runs `rounds` regions through the given offsets under one PC.
func teach(p *Prefetcher, pc uint64, start uint64, rounds int, offsets []int) {
	for r := 0; r < rounds; r++ {
		region := start + uint64(r)
		for _, o := range offsets {
			p.Train(prefetch.Access{PC: pc, Addr: addr(region, o)})
			p.IssueInto(nil, 64)
		}
		p.OnEvict(addr(region, offsets[0]))
	}
}

func TestDSPatchLearnsAndReplays(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 5, []int{0, 1, 2})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr(1000, 0)})
	got := p.IssueInto(nil, 64)
	if len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	want := map[mem.Addr]bool{addr(1000, 1): true, addr(1000, 2): true}
	for _, r := range got {
		if !want[r.Addr] {
			t.Errorf("unexpected target %#x", uint64(r.Addr))
		}
		if r.Level != prefetch.LevelL1 {
			t.Errorf("DSPatch fills L1D, got %v", r.Level)
		}
	}
}

// CovP is the union: alternating patterns replay the OR when bandwidth
// is plentiful.
func TestDSPatchCovPIsUnion(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 3, []int{0, 1})
	teach(p, 0x400, 100, 3, []int{0, 2})
	p.Train(prefetch.Access{PC: 0x400, Addr: addr(1000, 0)})
	got := p.IssueInto(nil, 64)
	if len(got) != 2 {
		t.Fatalf("CovP should predict the union, issued %d", len(got))
	}
}

// Under high useless pressure DSPatch switches to AccP: the AND of the
// alternating patterns is just the trigger, so nothing is prefetched.
func TestDSPatchSwitchesToAccPUnderPressure(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 3, []int{0, 1})
	teach(p, 0x400, 100, 3, []int{0, 2})
	for i := 0; i < 64; i++ {
		p.OnFill(0, prefetch.LevelL1, false) // all useless
	}
	p.Train(prefetch.Access{PC: 0x400, Addr: addr(1000, 0)})
	if got := p.IssueInto(nil, 64); len(got) != 0 {
		t.Errorf("AccP of disjoint patterns should be empty, issued %v", got)
	}
}

func TestDSPatchAnchorsOnTrigger(t *testing.T) {
	p := New()
	// Pattern learned at trigger 10: +1, +2.
	teach(p, 0x400, 0, 5, []int{10, 11, 12})
	// Replay at trigger 20: targets shift with the trigger.
	p.Train(prefetch.Access{PC: 0x400, Addr: addr(1000, 20)})
	got := p.IssueInto(nil, 64)
	want := map[mem.Addr]bool{addr(1000, 21): true, addr(1000, 22): true}
	if len(got) != 2 {
		t.Fatalf("issued %d, want 2", len(got))
	}
	for _, r := range got {
		if !want[r.Addr] {
			t.Errorf("unexpected target %#x (anchoring broken)", uint64(r.Addr))
		}
	}
}

func TestDSPatchNeedsTraining(t *testing.T) {
	p := New()
	teach(p, 0x400, 0, 1, []int{0, 1}) // single observation
	p.Train(prefetch.Access{PC: 0x400, Addr: addr(1000, 0)})
	if got := p.IssueInto(nil, 64); len(got) != 0 {
		t.Errorf("single pattern should not trigger replay, issued %v", got)
	}
}

func TestDSPatchStorageBudget(t *testing.T) {
	p := New()
	kb := float64(p.StorageBits()) / 8 / 1024
	// Paper Table V: 3.6KB. Allow modeling slack.
	if kb < 1 || kb > 5 {
		t.Errorf("storage = %.2f KB, want near 3.6", kb)
	}
}
