package isb

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func miss(p *Prefetcher, pc, line uint64) []prefetch.Request {
	p.Train(prefetch.Access{PC: pc, Addr: mem.Addr(line * mem.LineBytes), Hit: false})
	return p.IssueInto(nil, 16)
}

func TestISBLinearizesIrregularStream(t *testing.T) {
	p := New(DefaultConfig())
	seq := []uint64{77, 13000, 5, 420000, 99} // irregular temporal stream
	for pass := 0; pass < 2; pass++ {
		for _, l := range seq {
			p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(l * mem.LineBytes), Hit: false})
			p.IssueInto(nil, 16) // drain so the assertion sees only the final prediction
		}
	}
	// Third encounter of the stream head: structural successors known.
	got := miss(p, 1, 77)
	if len(got) == 0 {
		t.Fatal("linearized stream should prefetch")
	}
	want := map[uint64]bool{13000: true, 5: true, 420000: true}
	for _, r := range got {
		if !want[r.Addr.LineID()] {
			t.Errorf("unexpected target line %d", r.Addr.LineID())
		}
	}
}

func TestISBPerPCStreams(t *testing.T) {
	p := New(DefaultConfig())
	// Two interleaved PC streams must not corrupt each other.
	a := []uint64{10, 20, 30}
	b := []uint64{5000, 6000, 7000}
	for pass := 0; pass < 2; pass++ {
		for i := range a {
			miss(p, 1, a[i])
			miss(p, 2, b[i])
		}
	}
	got := miss(p, 1, 10)
	for _, r := range got {
		if r.Addr.LineID() >= 5000 {
			t.Errorf("stream A prefetched stream B's line %d", r.Addr.LineID())
		}
	}
}

func TestISBIgnoresHits(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		p.Train(prefetch.Access{PC: 1, Addr: mem.Addr(i * 64), Hit: true})
	}
	if got := p.IssueInto(nil, 16); len(got) != 0 {
		t.Errorf("hits should not train, issued %v", got)
	}
}

func TestISBBoundedMaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MapEntries = 512
	p := New(cfg)
	for i := uint64(0); i < 5000; i++ {
		miss(p, 1, i*97%100000)
	}
	if len(p.psMap) > cfg.MapEntries {
		t.Errorf("psMap grew to %d, bound is %d", len(p.psMap), cfg.MapEntries)
	}
	if len(p.spMap) > cfg.MapEntries {
		t.Errorf("spMap grew to %d, bound is %d", len(p.spMap), cfg.MapEntries)
	}
}

func TestISBStorageIsLarge(t *testing.T) {
	// §VI-C's point: temporal metadata is expensive. The on-chip model
	// should dwarf PMP's 4.3KB.
	p := New(DefaultConfig())
	if kb := float64(p.StorageBits()) / 8 / 1024; kb < 50 {
		t.Errorf("ISB storage = %.1f KB; expected the large temporal-metadata budget", kb)
	}
}

func TestISBInterface(t *testing.T) {
	var p prefetch.Prefetcher = New(DefaultConfig())
	if p.Name() != "isb" {
		t.Error("wrong name")
	}
	p.OnEvict(0)
	p.OnFill(0, prefetch.LevelL1, false)
}
