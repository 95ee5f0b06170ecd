package vldp

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func pageAddr(page uint64, off int) mem.Addr {
	return mem.Addr(page*mem.PageBytes + uint64(off)*mem.LineBytes)
}

func drive(p *Prefetcher, page uint64, offs []int) []prefetch.Request {
	var got []prefetch.Request
	for _, o := range offs {
		p.Train(prefetch.Access{PC: 0x400, Addr: pageAddr(page, o)})
		got = append(got, p.IssueInto(nil, 16)...)
	}
	return got
}

func TestVLDPLearnsConstantDelta(t *testing.T) {
	p := New()
	for page := uint64(0); page < 8; page++ {
		drive(p, page, []int{0, 2, 4, 6, 8, 10})
	}
	got := drive(p, 100, []int{0, 2, 4})
	if len(got) == 0 {
		t.Fatal("constant delta should prefetch")
	}
	for _, r := range got {
		if r.Addr.PageID() != 100 {
			t.Errorf("prefetch crossed page: %#x", uint64(r.Addr))
		}
		if r.Addr.PageOffset()%2 != 0 {
			t.Errorf("target %d breaks the +2 chain", r.Addr.PageOffset())
		}
	}
}

// The variable-length matching: a pattern where the next delta depends
// on two deltas of history ((+1,+3) -> +1, (+3,+1) -> +3) is learnable
// by the length-2 table, not the length-1 table.
func TestVLDPUsesLongerHistory(t *testing.T) {
	p := New()
	seq := []int{0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24}
	for page := uint64(0); page < 12; page++ {
		drive(p, page, seq)
	}
	got := drive(p, 100, []int{0, 1, 4, 5})
	if len(got) == 0 {
		t.Fatal("alternating delta pattern should prefetch via length-2 history")
	}
	// After ...+1 (history [+1,+3]) the next delta is +3; after ...+3
	// the next is +1. All targets stay on the {0,1,4,5,8,9,...} lattice.
	for _, r := range got {
		off := r.Addr.PageOffset()
		if off%4 != 0 && off%4 != 1 {
			t.Errorf("target offset %d off the alternating lattice", off)
		}
	}
}

func TestVLDPDegreeBounded(t *testing.T) {
	p := New()
	for page := uint64(0); page < 8; page++ {
		drive(p, page, []int{0, 1, 2, 3, 4, 5})
	}
	p.IssueInto(nil, 64)
	p.Train(prefetch.Access{PC: 0x400, Addr: pageAddr(50, 0)})
	p.Train(prefetch.Access{PC: 0x400, Addr: pageAddr(50, 1)})
	if got := p.IssueInto(nil, 64); len(got) > degree {
		t.Errorf("issued %d, degree bound is %d", len(got), degree)
	}
}

func TestVLDPColdSilent(t *testing.T) {
	p := New()
	if got := drive(p, 0, []int{0, 1}); len(got) != 0 {
		t.Errorf("cold VLDP issued %v", got)
	}
}

func TestVLDPInterface(t *testing.T) {
	var p prefetch.Prefetcher = New()
	if p.Name() != "vldp" {
		t.Error("wrong name")
	}
	p.OnEvict(0)
	p.OnFill(0, prefetch.LevelL1, false)
}
