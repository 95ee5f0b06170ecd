package sandbox

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func access(p *Prefetcher, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: 0x400, Addr: mem.Addr(line * mem.LineBytes)})
	return p.IssueInto(nil, 16)
}

// cycle is the accesses one full round-robin pass through the
// candidates takes: afterwards every candidate has been judged.
const cycle = len(offsets) * roundLen

// qualified reports whether candidate offset off qualified in its last
// sandbox round.
func qualified(t *testing.T, p *Prefetcher, off int) bool {
	t.Helper()
	for i, o := range offsets {
		if o == off {
			return p.qualified[i]
		}
	}
	t.Fatalf("offset %d is not a candidate", off)
	return false
}

func TestSandboxQualifiesStreamOffsets(t *testing.T) {
	p := New()
	// On a unit stream every positive offset's fake prefetch is
	// eventually demanded, so they all qualify — the sandbox's
	// mechanism for depth.
	for i := 0; i < cycle; i++ {
		access(p, uint64(i))
	}
	for _, off := range offsets {
		if off > 0 && !qualified(t, p, off) {
			t.Errorf("offset %d should qualify on a unit stream: %v", off, p.qualified)
		}
	}
	got := access(p, 1<<20)
	if len(got) == 0 {
		t.Fatal("qualified offsets should prefetch")
	}
	if got[0].Addr.LineID() != 1<<20+1 {
		t.Errorf("first target %d, want next line", got[0].Addr.LineID())
	}
}

func TestSandboxRejectsOffPhaseOffsets(t *testing.T) {
	p := New()
	// Stride-2 stream: even offsets hit, odd offsets never do.
	for i := 0; i < cycle; i++ {
		access(p, uint64(2*i))
	}
	if !qualified(t, p, 2) {
		t.Error("offset +2 should qualify on a stride-2 stream")
	}
	if qualified(t, p, 3) {
		t.Error("offset +3 should not qualify on a stride-2 stream")
	}
}

func TestSandboxRandomNeverQualifies(t *testing.T) {
	p := New()
	line := uint64(999)
	for i := 0; i < cycle; i++ {
		access(p, line%(1<<26))
		line = line*2862933555777941757 + 3037000493
	}
	for i, ok := range p.qualified {
		if ok {
			t.Errorf("offset %d qualified on random accesses", offsets[i])
		}
	}
}

func TestSandboxDegreeLevels(t *testing.T) {
	p := New()
	for i := 0; i < cycle; i++ {
		access(p, uint64(i))
	}
	p.IssueInto(nil, 64)
	// The leading qualified offset, +1, issues degree targets: the
	// first to L1D, the deeper ones to L2C. At most maxQualified
	// offsets issue.
	got := access(p, 1<<20)
	if len(got) < degree || len(got) > maxQualified*degree {
		t.Fatalf("issued %d, want %d to %d", len(got), degree, maxQualified*degree)
	}
	for d, r := range got[:degree] {
		if r.Addr.LineID() != 1<<20+uint64(d+1) {
			t.Errorf("target %d = line %d, want %d", d, r.Addr.LineID(), 1<<20+d+1)
		}
		want := prefetch.LevelL2
		if d == 0 {
			want = prefetch.LevelL1
		}
		if r.Level != want {
			t.Errorf("target %d level = %v, want %v", d, r.Level, want)
		}
	}
}

func TestSandboxInterface(t *testing.T) {
	var p prefetch.Prefetcher = New()
	if p.Name() != "sandbox" {
		t.Error("wrong name")
	}
	if p.StorageBits() <= 0 {
		t.Error("storage should be positive")
	}
	p.OnEvict(0)
	p.OnFill(0, prefetch.LevelL1, true)
}
