package bop

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func access(p *Prefetcher, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: 0x400, Addr: mem.Addr(line * mem.LineBytes)})
	return p.IssueInto(nil, 16)
}

func TestBOPAdoptsDominantOffset(t *testing.T) {
	p := New()
	// On a stride-3 stream every multiple of 3 scores, and 3 is the
	// first of them in each round-robin cycle through the candidates,
	// so it reaches scoreMax first: scoreMax cycles end the first round
	// on it.
	line := uint64(64)
	for i := 0; i < scoreMax*len(offsets); i++ {
		access(p, line)
		line += 3
	}
	if p.best != 3 {
		t.Fatalf("best offset = %d, want 3", p.best)
	}
	got := access(p, line)
	line += 3 // access advanced the walker
	if len(got) == 0 {
		t.Fatal("adopted offset should prefetch")
	}
	if got[0].Addr.LineID() != line {
		t.Errorf("target line %d, want current+3", got[0].Addr.LineID())
	}
}

func TestBOPNegativeOffset(t *testing.T) {
	p := New()
	// On a stride -2 stream every negative even offset scores, and -2
	// is the first of them in the candidate list.
	line := uint64(1 << 20)
	for i := 0; i < scoreMax*len(offsets); i++ {
		access(p, line)
		line -= 2
	}
	if p.best != -2 {
		t.Errorf("best offset = %d, want -2", p.best)
	}
}

func TestBOPPausesOnRandom(t *testing.T) {
	p := New()
	// Pseudo-random lines spread far apart: no candidate scores, so the
	// end-of-round adoption disables prefetching.
	line := uint64(12345)
	for i := 0; i < roundMax*len(offsets); i++ {
		access(p, line)
		line = line*6364136223846793005 + 1442695040888963407
		line %= 1 << 30
	}
	if p.active {
		t.Error("BOP should pause prefetching when no offset scores")
	}
}

func TestBOPStaysInPage(t *testing.T) {
	p := New()
	for i := 0; i < 400; i++ {
		access(p, uint64(i))
	}
	// Access the last line of a page: the +1 target would cross.
	p.IssueInto(nil, 64)
	p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(100*mem.PageBytes - mem.LineBytes)})
	for _, r := range p.IssueInto(nil, 16) {
		if r.Addr.PageID() != 99 {
			t.Errorf("prefetch crossed the page: %#x", uint64(r.Addr))
		}
	}
}

func TestBOPStorageTiny(t *testing.T) {
	p := New()
	if kb := float64(p.StorageBits()) / 8 / 1024; kb > 1 {
		t.Errorf("BOP storage = %.2f KB, should be well under 1KB", kb)
	}
}
