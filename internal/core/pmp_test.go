package core

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// train drives one access through the prefetcher.
func train(p prefetch.Prefetcher, pc uint64, addr mem.Addr) {
	p.Train(prefetch.Access{PC: pc, Addr: addr})
}

func regionAddr(region uint64, offset int) mem.Addr {
	return mem.Addr(region*mem.PageBytes + uint64(offset)*mem.LineBytes)
}

// teach trains the prefetcher on `rounds` fresh regions, each accessed
// at the given offsets (first offset is the trigger), closing each
// region pattern by eviction. Regions start at startRegion.
func teach(p prefetch.Prefetcher, pc uint64, startRegion uint64, rounds int, offsets []int) {
	for r := 0; r < rounds; r++ {
		region := startRegion + uint64(r)
		for _, o := range offsets {
			train(p, pc, regionAddr(region, o))
			p.IssueInto(nil, 64) // drain so earlier predictions don't accumulate
		}
		p.OnEvict(regionAddr(region, offsets[0]))
	}
}

func TestPMPLearnsSequentialPattern(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})

	// A trigger access at offset 0 of a fresh region predicts the
	// learned pattern.
	train(p, 0x400, regionAddr(1000, 0))
	reqs := p.IssueInto(nil, 64)
	if len(reqs) != 3 {
		t.Fatalf("issued %d requests, want 3: %v", len(reqs), reqs)
	}
	// Offset 1 shares the PPT's coarse group 0 with the trigger, whose
	// element is the (never-extracted) time counter, so arbitration rule
	// 3 downgrades it to L2C; offsets 2 and 3 get full PPT agreement.
	want := map[mem.Addr]prefetch.Level{
		regionAddr(1000, 1): prefetch.LevelL2,
		regionAddr(1000, 2): prefetch.LevelL1,
		regionAddr(1000, 3): prefetch.LevelL1,
	}
	for _, r := range reqs {
		wl, ok := want[r.Addr]
		if !ok {
			t.Errorf("unexpected target %#x", uint64(r.Addr))
			continue
		}
		if r.Level != wl {
			t.Errorf("target %#x level = %v, want %v", uint64(r.Addr), r.Level, wl)
		}
	}
}

func TestPMPTriggerNeverPrefetched(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{5, 6, 7})
	train(p, 0x400, regionAddr(1000, 5))
	for _, r := range p.IssueInto(nil, 64) {
		if r.Addr == regionAddr(1000, 5) {
			t.Fatal("trigger line was prefetched")
		}
	}
}

func TestPMPBackwardPatternWraps(t *testing.T) {
	// MCF-style: enter at the top offset, walk down. Anchored offsets
	// wrap around the region.
	p := New(DefaultConfig())
	teach(p, 0x600, 0, 20, []int{63, 62, 61})
	train(p, 0x600, regionAddr(500, 63))
	reqs := p.IssueInto(nil, 64)
	if len(reqs) != 2 {
		t.Fatalf("issued %d requests, want 2: %v", len(reqs), reqs)
	}
	want := map[mem.Addr]bool{
		regionAddr(500, 62): true,
		regionAddr(500, 61): true,
	}
	for _, r := range reqs {
		if !want[r.Addr] {
			t.Errorf("unexpected target %#x (offsets should stay in region)", uint64(r.Addr))
		}
	}
}

func TestPMPPatternsShareAcrossRegions(t *testing.T) {
	// Patterns learned in one set of regions prefetch in never-seen
	// regions — the compulsory-miss coverage the paper highlights.
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{0, 1})
	train(p, 0x400, regionAddr(1<<30, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) == 0 {
		t.Error("no prefetch in a fresh region despite trained pattern")
	}
}

func TestPMPArbitrationDowngradesWithoutPPT(t *testing.T) {
	// Train the OPT strongly via one PC; then trigger with a PC whose
	// PPT entry is empty: rule 3 downgrades L1 -> L2.
	cfg := DefaultConfig()
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1})

	// Find a PC that hashes to a different PPT entry than 0x400.
	trainedIdx := mem.HashPC(0x400, cfg.PCBits)
	otherPC := uint64(0x404)
	for mem.HashPC(otherPC, cfg.PCBits) == trainedIdx {
		otherPC += 4
	}
	train(p, otherPC, regionAddr(2000, 0))
	reqs := p.IssueInto(nil, 64)
	if len(reqs) == 0 {
		t.Fatal("OPT prediction should survive PPT silence")
	}
	for _, r := range reqs {
		if r.Level != prefetch.LevelL2 {
			t.Errorf("level = %v, want L2C (downgraded from L1)", r.Level)
		}
	}
}

func TestPMPArbitrationRule2(t *testing.T) {
	// An offset at L2 confidence in the OPT with PPT agreement lands in
	// L2C. Teach offset 3 (outside the trigger's coarse group) in 1/4 of
	// patterns: freq 0.25 -> L2 in both tables -> rule 2 keeps L2C.
	p := New(DefaultConfig())
	pc := uint64(0x400)
	for r := 0; r < 40; r++ {
		region := uint64(r)
		train(p, pc, regionAddr(region, 0))
		if r%4 == 0 {
			train(p, pc, regionAddr(region, 3))
		}
		// Always include offset 32 so patterns have >= 2 accesses and
		// complete.
		train(p, pc, regionAddr(region, 32))
		p.IssueInto(nil, 64)
		p.OnEvict(regionAddr(region, 0))
	}
	train(p, pc, regionAddr(3000, 0))
	reqs := p.IssueInto(nil, 64)
	var got prefetch.Level
	for _, r := range reqs {
		if r.Addr == regionAddr(3000, 3) {
			got = r.Level
		}
	}
	if got != prefetch.LevelL2 {
		t.Errorf("quarter-frequency offset level = %v, want L2C", got)
	}
}

// TestPMPArbitrationRules pins Fig 6e's four rules offset by offset. A
// first arbitration fills every offset, so the second shows that each
// level comes from the current candidates alone.
func TestPMPArbitrationRules(t *testing.T) {
	const none, l1, l2, llc = prefetch.LevelNone, prefetch.LevelL1, prefetch.LevelL2, prefetch.LevelLLC
	cases := []struct{ opt, ppt, want prefetch.Level }{
		{none, l1, none}, // rule 4
		{none, none, none},
		{l1, l1, l1}, // rule 1
		{l1, l2, l2}, // rule 2
		{l2, l1, l2},
		{l2, l2, l2},
		{l1, none, l2}, // rule 3
		{l2, none, llc},
	}
	p := New(DefaultConfig()) // monitoring range 2: offset k reads PPT counter k/2
	for k := range p.optLevels {
		p.optLevels[k], p.pptLevels[k/2] = l1, l1
	}
	p.arbitrate()
	for k := range p.optLevels {
		p.optLevels[k], p.pptLevels[k/2] = none, none
	}
	for i, c := range cases {
		k := 2 * (i + 1)
		p.optLevels[k], p.pptLevels[k/2] = c.opt, c.ppt
	}
	p.arbitrate()
	for k, got := range p.final {
		want := none
		if i := k/2 - 1; k%2 == 0 && i >= 0 && i < len(cases) {
			want = cases[i].want
		}
		if got != want {
			t.Errorf("offset %d: final level %v, want %v", k, got, want)
		}
	}
}

// TestPMPLimitKeepsNearestLowLevelTargets pins PMP-Limit's cap: the
// LowLevelDegree nearest targets below L1D survive, nearest-first in the
// buffer's order (1, 63, 2, 62, ...), and L1D targets are not counted.
func TestPMPLimitKeepsNearestLowLevelTargets(t *testing.T) {
	const l1, l2, llc = prefetch.LevelL1, prefetch.LevelL2, prefetch.LevelLLC
	cfg := DefaultConfig()
	cfg.LowLevelDegree = 2
	p := New(cfg)
	set := map[int]prefetch.Level{1: l1, 63: l2, 2: llc, 62: l1, 3: l2, 61: llc}
	for k, l := range set {
		p.final[k] = l
	}
	p.capLowLevel()
	want := map[int]prefetch.Level{1: l1, 63: l2, 2: llc, 62: l1}
	for k, got := range p.final {
		if got != want[k] {
			t.Errorf("offset %d: level %v, want %v", k, got, want[k])
		}
	}
}

func TestPMPOPTOnlySkipsArbitration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Feature = OPTOnly
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1})
	train(p, 0x999, regionAddr(2000, 0)) // unknown PC is irrelevant here
	reqs := p.IssueInto(nil, 64)
	if len(reqs) == 0 {
		t.Fatal("OPT-only should predict")
	}
	if reqs[0].Level != prefetch.LevelL1 {
		t.Errorf("OPT-only level = %v, want L1D (no downgrade without arbitration)", reqs[0].Level)
	}
}

func TestPMPPPTOnlyPredictsByPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Feature = PPTOnly
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1})
	train(p, 0x400, regionAddr(2000, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) == 0 {
		t.Error("PPT-only should predict for the trained PC")
	}
}

func TestPMPCombinedFeature(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Feature = Combined
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1})
	train(p, 0x400, regionAddr(2000, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) == 0 {
		t.Error("combined feature should predict for trained (PC, offset)")
	}
	// A different PC maps to a different combined entry: silent.
	trainedIdx := mem.HashPC(0x400, cfg.PCBits)
	otherPC := uint64(0x404)
	for mem.HashPC(otherPC, cfg.PCBits) == trainedIdx {
		otherPC += 4
	}
	train(p, otherPC, regionAddr(3000, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) != 0 {
		t.Errorf("combined feature predicted %d targets for untrained PC", len(reqs))
	}
}

func TestPMPLimitCapsLowLevelPrefetches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LowLevelDegree = 1
	p := New(cfg)
	// Teach a pattern whose offsets sit at L2 confidence (~25%), with a
	// constant spine so patterns complete.
	pc := uint64(0x400)
	for r := 0; r < 40; r++ {
		region := uint64(r)
		train(p, pc, regionAddr(region, 0))
		train(p, pc, regionAddr(region, 32))
		o := 1 + r%4*8 // rotates among 1, 9, 17, 25 -> each at freq 1/4
		train(p, pc, regionAddr(region, o))
		p.IssueInto(nil, 64)
		p.OnEvict(regionAddr(region, 0))
	}
	train(p, pc, regionAddr(4000, 0))
	lowLevel := 0
	for _, r := range p.IssueInto(nil, 64) {
		if r.Level != prefetch.LevelL1 {
			lowLevel++
		}
	}
	if lowLevel > 1 {
		t.Errorf("PMP-Limit issued %d low-level prefetches, want <= 1", lowLevel)
	}
}

func TestPMPIssueRespectsMax(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3, 4, 5, 6, 7})
	train(p, 0x400, regionAddr(1000, 0))
	first := p.IssueInto(nil, 3)
	if len(first) > 3 {
		t.Fatalf("IssueInto(nil, 3) returned %d", len(first))
	}
	rest := p.IssueInto(nil, 64)
	seen := map[mem.Addr]bool{}
	for _, r := range append(first, rest...) {
		if seen[r.Addr] {
			t.Errorf("duplicate prefetch %#x", uint64(r.Addr))
		}
		seen[r.Addr] = true
	}
	if len(first)+len(rest) != 7 {
		t.Errorf("total issued = %d, want 7", len(first)+len(rest))
	}
}

func TestPMPResumeOnRegionReaccess(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})
	// Trigger two regions; drain nothing yet.
	train(p, 0x400, regionAddr(1000, 0))
	train(p, 0x400, regionAddr(2000, 0))
	// Touching region 1000 resumes its draining first.
	train(p, 0x400, regionAddr(1000, 1))
	reqs := p.IssueInto(nil, 1)
	if len(reqs) != 1 {
		t.Fatal("expected a request")
	}
	if mem.NewRegion(4096).ID(reqs[0].Addr) != 1000 {
		t.Errorf("drained region %d first, want the re-accessed 1000",
			mem.NewRegion(4096).ID(reqs[0].Addr))
	}
}

// TestPMPTriggerIsNoReaccess pins the other side of §IV-B's resume: a
// trigger access starts a new prediction and does not resume the
// region's earlier buffer entry, even when it predicts nothing.
func TestPMPTriggerIsNoReaccess(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})
	train(p, 0x400, regionAddr(1000, 0))
	train(p, 0x400, regionAddr(2000, 0))
	p.OnEvict(regionAddr(1000, 0))        // drops 1000's filter entry
	train(p, 0x400, regionAddr(1000, 40)) // so this triggers, predicting nothing
	if reqs := p.IssueInto(nil, 1); len(reqs) != 1 || reqs[0].Addr != regionAddr(2000, 1) {
		t.Errorf("first request = %v, want region 2000 offset 1", reqs)
	}
}

func TestPMPUntrainedIsSilent(t *testing.T) {
	p := New(DefaultConfig())
	train(p, 0x400, regionAddr(1, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) != 0 {
		t.Errorf("untrained PMP issued %v", reqs)
	}
}

func TestPMPStatsProgress(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 10, []int{0, 1})
	s := p.Stats()
	if s.PatternsMerged != 10 {
		t.Errorf("merged = %d, want 10", s.PatternsMerged)
	}
	if s.Predictions != 10 {
		t.Errorf("predictions = %d, want 10", s.Predictions)
	}
	// TargetsQueued counts exactly the targets the buffer then issues.
	train(p, 0x400, regionAddr(1000, 0))
	reqs := p.IssueInto(nil, 64)
	if got := p.Stats().TargetsQueued - s.TargetsQueued; len(reqs) == 0 || got != uint64(len(reqs)) {
		t.Errorf("targets queued = %d for %d issued requests", got, len(reqs))
	}
}

// TestPMPEmptyPredictionKeepsBuffer pins §IV-B's use of the prefetch
// buffer: a trigger whose prediction is empty stores nothing, so it
// cannot displace a buffered region whose targets are still pending.
func TestPMPEmptyPredictionKeepsBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PBEntries = 1
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})
	train(p, 0x400, regionAddr(1000, 0))  // buffered, not yet drained
	train(p, 0x400, regionAddr(2000, 40)) // untrained trigger offset
	if reqs := p.IssueInto(nil, 64); len(reqs) != 3 {
		t.Errorf("issued %d requests, want region 1000's 3: %v", len(reqs), reqs)
	}
}

func TestPMPHalvingOccurs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OPTCounterBits = 2 // time counter saturates at 3
	p := New(cfg)
	teach(p, 0x400, 0, 12, []int{0, 1})
	// The OPT row's time counter halves from 3 to 1 at merges 3, 5, 7,
	// 9 and 11; the 5-bit PPT never saturates.
	if got := p.Stats().Halvings; got != 5 {
		t.Errorf("halvings = %d during 12 merges, want 5", got)
	}
}

// TestPMPOPTIndexedByTriggerOffset pins §IV's anchoring feature: the
// OPT row is chosen by the trigger offset, so a pattern learned at one
// trigger offset predicts nothing at another.
func TestPMPOPTIndexedByTriggerOffset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Feature = OPTOnly
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1, 2})
	train(p, 0x400, regionAddr(1000, 5))
	if reqs := p.IssueInto(nil, 64); len(reqs) != 0 {
		t.Errorf("trigger offset 5 used offset 0's row: %v", reqs)
	}
	train(p, 0x400, regionAddr(1001, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) != 2 {
		t.Errorf("trigger offset 0 issued %v, want its 2 targets", reqs)
	}
}

func TestPMPName(t *testing.T) {
	if New(DefaultConfig()).Name() != "pmp" {
		t.Error("wrong name")
	}
}

func TestPMPStorageBitsMatchesConfig(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	if p.StorageBits() != cfg.Storage().TotalBits {
		t.Error("StorageBits disagrees with Config.Storage")
	}
}

func TestPMPSmallRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RegionBytes = 1024
	cfg.TriggerBits = 4
	p := New(cfg)
	// 16-line regions; teach offsets 0..2.
	for r := 0; r < 20; r++ {
		base := mem.Addr(uint64(r) * 1024)
		for o := 0; o < 3; o++ {
			train(p, 0x400, base+mem.Addr(o*64))
		}
		p.IssueInto(nil, 64)
		p.OnEvict(base)
	}
	train(p, 0x400, mem.Addr(999*1024))
	reqs := p.IssueInto(nil, 64)
	if len(reqs) != 2 {
		t.Fatalf("issued %d, want 2", len(reqs))
	}
	for _, r := range reqs {
		if r.Addr < 999*1024 || r.Addr >= 1000*1024 {
			t.Errorf("target %#x outside the 1KB region", uint64(r.Addr))
		}
	}
}

func TestPMPWideTriggerBits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriggerBits = 8 // sub-line feature bits
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1})
	train(p, 0x400, regionAddr(2000, 0))
	if reqs := p.IssueInto(nil, 64); len(reqs) == 0 {
		t.Error("wide trigger bits should still predict (same sub-line offsets)")
	}
}

func TestPMPOnFillIgnored(t *testing.T) {
	p := New(DefaultConfig())
	p.OnFill(0, prefetch.LevelL1, true) // must not panic or change state
	if p.Stats() != (Stats{}) {
		t.Error("OnFill should not mutate stats")
	}
}

func TestPMPNoHalvingFreezes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OPTCounterBits = 2 // saturates quickly
	cfg.NoHalving = true
	p := New(cfg)
	teach(p, 0x400, 0, 12, []int{0, 1})
	if p.Stats().Halvings != 0 {
		t.Error("NoHalving config should never halve")
	}
	// Frozen counters still predict.
	train(p, 0x400, regionAddr(900, 0))
	if len(p.IssueInto(nil, 64)) == 0 {
		t.Error("frozen vectors should still produce predictions")
	}
}

func TestPMPNoResumeStopsDraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoResume = true
	p := New(cfg)
	teach(p, 0x400, 0, 20, []int{0, 1, 2, 3})
	// Two triggered regions; without resume, draining order follows
	// insertion (MRU at trigger time), untouched by re-accesses.
	train(p, 0x400, regionAddr(1000, 0))
	train(p, 0x400, regionAddr(2000, 0))
	train(p, 0x400, regionAddr(1000, 1)) // would resume 1000 if enabled
	reqs := p.IssueInto(nil, 1)
	if len(reqs) != 1 {
		t.Fatal("expected one request")
	}
	if mem.NewRegion(4096).ID(reqs[0].Addr) != 2000 {
		t.Errorf("NoResume should keep draining the last trigger (2000), got region %d",
			mem.NewRegion(4096).ID(reqs[0].Addr))
	}
}

func TestPMPCrossRegionProjectsForward(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CrossRegion = true
	p := New(cfg)
	// Teach a forward stream entering regions at offset 62: the pattern
	// covers offsets 62, 63 and (wrapping in anchored space) 0, 1 of the
	// next region's worth of lines.
	teach(p, 0x400, 0, 20, []int{62, 63, 0, 1})
	train(p, 0x400, regionAddr(1000, 62))
	reqs := p.IssueInto(nil, 64)
	if len(reqs) == 0 {
		t.Fatal("no prefetches")
	}
	sawNext := false
	for _, r := range reqs {
		region := mem.NewRegion(4096).ID(r.Addr)
		switch region {
		case 1000: // offset 63: in-region target
		case 1001: // projected wrap targets
			sawNext = true
		default:
			t.Errorf("target in unexpected region %d", region)
		}
	}
	if !sawNext {
		t.Error("cross-region mode should project wrapped targets into region+1")
	}
}

func TestPMPDefaultWrapsWithinRegion(t *testing.T) {
	p := New(DefaultConfig())
	teach(p, 0x400, 0, 20, []int{62, 63, 0, 1})
	train(p, 0x400, regionAddr(1000, 62))
	for _, r := range p.IssueInto(nil, 64) {
		if mem.NewRegion(4096).ID(r.Addr) != 1000 {
			t.Fatalf("default PMP must not cross regions, target %#x", uint64(r.Addr))
		}
	}
}
