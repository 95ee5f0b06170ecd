package spp

import (
	"slices"
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func pageAddr(page uint64, offset int) mem.Addr {
	return mem.Addr(page*mem.PageBytes + uint64(offset)*mem.LineBytes)
}

func drive(p *Prefetcher, pc uint64, page uint64, offsets []int) []prefetch.Request {
	var got []prefetch.Request
	for _, o := range offsets {
		p.Train(prefetch.Access{PC: pc, Addr: pageAddr(page, o)})
		got = append(got, p.IssueInto(nil, 64)...)
	}
	return got
}

func TestSPPLearnsDeltaPath(t *testing.T) {
	p := New()
	// Train delta +2 across several pages so signature transitions are
	// confident.
	for page := uint64(0); page < 6; page++ {
		drive(p, 0x400, page, []int{0, 2, 4, 6, 8, 10})
	}
	got := drive(p, 0x400, 100, []int{0, 2, 4})
	if len(got) == 0 {
		t.Fatal("confident delta path should prefetch")
	}
	// Every target must continue the +2 path within the page.
	for _, r := range got {
		if r.Addr.PageID() != 100 {
			t.Errorf("cross-page prefetch %#x", uint64(r.Addr))
		}
		if r.Addr.PageOffset()%2 != 0 {
			t.Errorf("target offset %d breaks the +2 path", r.Addr.PageOffset())
		}
	}
}

// A fully confident +1 path decays by 0.75 a hop: two hops clear
// fillThresh and fill the L1D, the next two clear only pfThresh and
// fill the L2C, and the fifth stops the walk.
func TestSPPLookaheadDepth(t *testing.T) {
	p := New()
	for page := uint64(0); page < 8; page++ {
		drive(p, 0x400, page, []int{0, 1, 2, 3, 4, 5, 6, 7})
	}
	p.Train(prefetch.Access{PC: 0x400, Addr: pageAddr(50, 0)})
	p.Train(prefetch.Access{PC: 0x400, Addr: pageAddr(50, 1)})
	got := p.IssueInto(nil, 64)
	want := []prefetch.Request{
		{Addr: pageAddr(50, 2), Level: prefetch.LevelL1},
		{Addr: pageAddr(50, 3), Level: prefetch.LevelL1},
		{Addr: pageAddr(50, 4), Level: prefetch.LevelL2},
		{Addr: pageAddr(50, 5), Level: prefetch.LevelL2},
	}
	if !slices.Equal(got, want) {
		t.Errorf("lookahead issued %v, want %v", got, want)
	}
}

func TestSPPStaysInPage(t *testing.T) {
	p := New()
	for page := uint64(0); page < 6; page++ {
		drive(p, 0x400, page, []int{56, 58, 60, 62})
	}
	got := drive(p, 0x400, 100, []int{56, 58, 60, 62})
	for _, r := range got {
		if r.Addr.PageID() != 100 {
			t.Fatalf("prefetch crossed the page: %#x", uint64(r.Addr))
		}
	}
}

func TestSPPUntrainedSilent(t *testing.T) {
	p := New()
	if got := drive(p, 0x400, 0, []int{0}); len(got) != 0 {
		t.Errorf("first access issued %v", got)
	}
}

func TestPPFVetoesAfterUselessFeedback(t *testing.T) {
	p := New()
	train := func() int {
		n := 0
		for page := uint64(0); page < 4; page++ {
			n += len(drive(p, 0x400, 200+page, []int{0, 2, 4, 6, 8}))
		}
		return n
	}
	before := train()
	if before == 0 {
		t.Skip("no prefetches to veto at this configuration")
	}
	// Hammer the filter with useless outcomes for everything it issued.
	for i := 0; i < 2000; i++ {
		p.OnFill(mem.Addr(uint64(i%64)*64), prefetch.LevelL2, false)
		// Also train directly via records.
		for j := range p.records {
			if p.records[j].valid {
				p.ppf.train(p.records[j].features, false)
			}
		}
	}
	after := train()
	if after >= before {
		t.Errorf("PPF should suppress after useless feedback: %d -> %d", before, after)
	}
}

func TestPerceptronTrainSaturates(t *testing.T) {
	pp := &perceptron{}
	feats := pp.features(0x400, 0x1000, 2, 0, 0x12, 0.5)
	for i := 0; i < 1000; i++ {
		pp.train(feats, true)
	}
	s := pp.sum(feats)
	if s <= 0 {
		t.Errorf("sum after useful training = %d, want positive", s)
	}
	maxSum := numFeatures * wMax
	if s > maxSum {
		t.Errorf("sum %d exceeds saturation bound %d", s, maxSum)
	}
	for i := 0; i < 2000; i++ {
		pp.train(feats, false)
	}
	if pp.sum(feats) >= 0 {
		t.Error("sum should go negative after useless training")
	}
}

func TestPerceptronThresholdStopsTraining(t *testing.T) {
	pp := &perceptron{}
	feats := pp.features(0x400, 0x1000, 2, 0, 0x12, 0.5)
	for i := 0; i < 100; i++ {
		pp.train(feats, true)
	}
	// Training halts once the sum clears the threshold (plus one step).
	if s := pp.sum(feats); s > trainThresh+numFeatures {
		t.Errorf("sum = %d, training should stop near the threshold %d", s, trainThresh)
	}
}

func TestSPPStorageBudget(t *testing.T) {
	p := New()
	kb := float64(p.StorageBits()) / 8 / 1024
	// Paper Table V: 48.4KB.
	if kb < 33 || kb > 60 {
		t.Errorf("storage = %.1f KB, want near 48.4", kb)
	}
}

func TestSPPInterface(t *testing.T) {
	var p prefetch.Prefetcher = New()
	if p.Name() != "spp-ppf" {
		t.Error("wrong name")
	}
	p.OnEvict(0)
}
