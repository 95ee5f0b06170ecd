package triage

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func miss(p *Prefetcher, pc, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: pc, Addr: mem.Addr(line * mem.LineBytes), Hit: false})
	return p.IssueInto(nil, 16)
}

func TestTriageFollowsCorrelationChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Degree = 3
	p := New(cfg)
	seq := []uint64{10, 5000, 42, 777777}
	for pass := 0; pass < 2; pass++ {
		for _, l := range seq {
			miss(p, 1, l)
		}
	}
	got := miss(p, 1, 10)
	if len(got) != 3 {
		t.Fatalf("degree-3 chain should yield 3 targets, got %d", len(got))
	}
	want := []uint64{5000, 42, 777777}
	for i, r := range got {
		if r.Addr.LineID() != want[i] {
			t.Errorf("target %d = line %d, want %d", i, r.Addr.LineID(), want[i])
		}
	}
	if got[0].Level != prefetch.LevelL1 || got[1].Level != prefetch.LevelL2 {
		t.Errorf("levels = %v, %v; want L1 then L2", got[0].Level, got[1].Level)
	}
}

func TestTriageUpdatesCorrelation(t *testing.T) {
	p := New(DefaultConfig())
	miss(p, 1, 10)
	miss(p, 1, 100) // 10 -> 100
	miss(p, 1, 10)
	miss(p, 1, 200) // 10 -> 200 (latest wins)
	got := miss(p, 1, 10)
	if len(got) == 0 || got[0].Addr.LineID() != 200 {
		t.Errorf("correlation should follow the latest pair, got %v", got)
	}
}

func TestTriageColdSilent(t *testing.T) {
	p := New(DefaultConfig())
	if got := miss(p, 1, 42); len(got) != 0 {
		t.Errorf("cold miss prefetched %v", got)
	}
}

func TestTriageIgnoresHits(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(i * 64), Hit: true})
	}
	if got := p.IssueInto(nil, 16); len(got) != 0 {
		t.Errorf("hits trained predictions: %v", got)
	}
}

func TestTriageStorageIsHuge(t *testing.T) {
	// §VI-C's point: Triage devotes LLC-scale storage to metadata.
	p := New(DefaultConfig())
	if kb := float64(p.StorageBits()) / 8 / 1024; kb < 256 {
		t.Errorf("storage = %.1f KB, expected LLC-scale metadata", kb)
	}
}

func TestTriageClampsConfig(t *testing.T) {
	p := New(Config{TableEntries: 7, Ways: 0, Degree: 0})
	if p.cfg.TableEntries < 64 || p.cfg.Ways != 1 || p.cfg.Degree != 1 {
		t.Errorf("clamping failed: %+v", p.cfg)
	}
}
