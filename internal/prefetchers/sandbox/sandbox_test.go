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

func TestSandboxQualifiesStreamOffsets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offsets = []int{1, 5}
	cfg.RoundLen = 64
	cfg.Threshold = 16
	p := New(cfg)
	// On a unit stream every positive offset's fake prefetch is
	// eventually demanded, so both candidates qualify — the sandbox's
	// mechanism for depth.
	for i := 0; i < 4*cfg.RoundLen; i++ {
		access(p, uint64(i))
	}
	if !p.qualified[1] || !p.qualified[5] {
		t.Fatalf("both offsets should qualify on a unit stream: %v", p.qualified)
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
	cfg := DefaultConfig()
	cfg.Offsets = []int{2, 3}
	cfg.RoundLen = 64
	cfg.Threshold = 16
	p := New(cfg)
	// Stride-2 stream: even offsets hit, odd offsets never do.
	for i := 0; i < 4*cfg.RoundLen; i++ {
		access(p, uint64(2*i))
	}
	if !p.qualified[2] {
		t.Error("offset +2 should qualify on a stride-2 stream")
	}
	if p.qualified[3] {
		t.Error("offset +3 should not qualify on a stride-2 stream")
	}
}

func TestSandboxRandomNeverQualifies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offsets = []int{1, 2}
	cfg.RoundLen = 64
	cfg.Threshold = 16
	p := New(cfg)
	line := uint64(999)
	for i := 0; i < 6*cfg.RoundLen; i++ {
		access(p, line%(1<<26))
		line = line*2862933555777941757 + 3037000493
	}
	for off, ok := range p.qualified {
		if ok {
			t.Errorf("offset %d qualified on random accesses", off)
		}
	}
}

func TestSandboxDegreeLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offsets = []int{1}
	cfg.RoundLen = 32
	cfg.Threshold = 8
	cfg.Degree = 2
	p := New(cfg)
	for i := 0; i < 3*cfg.RoundLen; i++ {
		access(p, uint64(i))
	}
	p.IssueInto(nil, 64)
	got := access(p, 1<<20)
	if len(got) != 2 {
		t.Fatalf("degree-2 should issue 2, got %d", len(got))
	}
	if got[0].Level != prefetch.LevelL1 || got[1].Level != prefetch.LevelL2 {
		t.Errorf("levels = %v, %v; want L1 then L2", got[0].Level, got[1].Level)
	}
}

func TestSandboxInterface(t *testing.T) {
	var p prefetch.Prefetcher = New(DefaultConfig())
	if p.Name() != "sandbox" {
		t.Error("wrong name")
	}
	if p.StorageBits() <= 0 {
		t.Error("storage should be positive")
	}
	p.OnEvict(0)
	p.OnFill(0, prefetch.LevelL1, true)
}

func TestSandboxPanicsWithoutOffsets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty offset list accepted")
		}
	}()
	New(Config{})
}
