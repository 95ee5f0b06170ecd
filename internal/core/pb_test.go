package core

import (
	"math/rand"
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func levelsWith(n int, m map[int]prefetch.Level) []prefetch.Level {
	out := make([]prefetch.Level, n)
	for k, l := range m {
		out[k] = l
	}
	return out
}

func TestPBNearestFirstOrder(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	// Anchored order must be 1, 63, 2, 62, ...
	want := []int{1, 63, 2, 62, 3, 61}
	for i, k := range want {
		if pb.order[i] != k {
			t.Fatalf("order[%d] = %d, want %d (full prefix %v)", i, pb.order[i], k, pb.order[:6])
		}
	}
	if len(pb.order) != 63 {
		t.Errorf("order covers %d offsets, want 63", len(pb.order))
	}
}

func TestPBDrainAssemblesAddresses(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(4, region)
	// Trigger at offset 10 in region 3; anchored targets at k=1 (offset
	// 11) and k=63 (offset 9).
	pb.Insert(3, 10, levelsWith(64, map[int]prefetch.Level{
		1:  prefetch.LevelL1,
		63: prefetch.LevelL2,
	}))
	got := pb.DrainInto(nil, 10)
	if len(got) != 2 {
		t.Fatalf("drained %d requests, want 2", len(got))
	}
	wantAddr0 := region.LineAddr(3, 11)
	wantAddr1 := region.LineAddr(3, 9)
	if got[0].Addr != wantAddr0 || got[0].Level != prefetch.LevelL1 {
		t.Errorf("first request = %+v, want addr %#x L1D", got[0], uint64(wantAddr0))
	}
	if got[1].Addr != wantAddr1 || got[1].Level != prefetch.LevelL2 {
		t.Errorf("second request = %+v, want addr %#x L2C", got[1], uint64(wantAddr1))
	}
	// Entry fully drained; nothing more.
	if more := pb.DrainInto(nil, 10); len(more) != 0 {
		t.Errorf("drained extra requests: %v", more)
	}
}

func TestPBDrainRespectsMax(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{
		1: prefetch.LevelL1, 2: prefetch.LevelL1, 3: prefetch.LevelL1, 4: prefetch.LevelL1,
	}))
	if got := pb.DrainInto(nil, 2); len(got) != 2 {
		t.Fatalf("DrainInto(nil, 2) gave %d", len(got))
	}
	// Remaining targets drain later without repeats.
	rest := pb.DrainInto(nil, 10)
	if len(rest) != 2 {
		t.Fatalf("second drain gave %d, want 2", len(rest))
	}
	seen := map[mem.Addr]bool{}
	for _, r := range rest {
		if seen[r.Addr] {
			t.Errorf("duplicate issue of %#x", uint64(r.Addr))
		}
		seen[r.Addr] = true
	}
	if got := pb.DrainInto(nil, 10); len(got) != 0 {
		t.Error("third drain should be empty")
	}
}

func TestPBTouchResumesRegion(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 2: prefetch.LevelL1}))
	pb.Insert(2, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 2: prefetch.LevelL1}))
	// Region 2 is MRU: drains first.
	r := pb.DrainInto(nil, 1)
	if len(r) != 1 || mem.NewRegion(4096).ID(r[0].Addr) != 2 {
		t.Fatalf("MRU drain = %+v, want region 2", r)
	}
	// Touching region 1 resumes it ahead of region 2.
	if !pb.Touch(1) {
		t.Fatal("Touch(1) should find the entry")
	}
	r = pb.DrainInto(nil, 1)
	if len(r) != 1 || mem.NewRegion(4096).ID(r[0].Addr) != 1 {
		t.Fatalf("post-touch drain = %+v, want region 1", r)
	}
	if pb.Touch(99) {
		t.Error("Touch of absent region should return false")
	}
}

// TestPBLatestTouchDrainsFirst pins that every Touch takes a fresh
// stamp: of two regions touched in turn, the later one resumes first.
func TestPBLatestTouchDrainsFirst(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(4, region)
	l := levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1})
	pb.Insert(1, 0, l)
	pb.Insert(2, 0, l)
	pb.Touch(1)
	pb.Touch(2)
	if r := pb.DrainInto(nil, 1); len(r) != 1 || region.ID(r[0].Addr) != 2 {
		t.Errorf("drained %v first, want region 2", r)
	}
}

func TestPBReplacesLRU(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	l := levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1})
	pb.Insert(1, 0, l)
	pb.Insert(2, 0, l)
	pb.Insert(3, 0, l) // displaces region 1 (LRU)
	if pb.Touch(1) {
		t.Error("region 1 should have been displaced")
	}
	if !pb.Touch(2) || !pb.Touch(3) {
		t.Error("regions 2 and 3 should be present")
	}
}

func TestPBReinsertResetsIssued(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	l := levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1})
	pb.Insert(1, 0, l)
	if got := pb.DrainInto(nil, 10); len(got) != 1 {
		t.Fatal("first drain should issue one request")
	}
	// Re-inserting the same region re-arms its pattern.
	pb.Insert(1, 0, l)
	if got := pb.DrainInto(nil, 10); len(got) != 1 {
		t.Error("re-inserted pattern should issue again")
	}
}

// TestPBReinsertReplacesPattern pins that a region holds one entry: a
// new prediction for a buffered region replaces its pattern in place,
// pending targets included, even when another slot is the LRU victim.
func TestPBReinsertReplacesPattern(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(3, region)
	other := levelsWith(64, map[int]prefetch.Level{5: prefetch.LevelL1})
	pb.Insert(7, 0, other)
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 2: prefetch.LevelL1}))
	pb.Insert(8, 0, other)
	pb.Touch(7)
	pb.Touch(1) // region 8 is the LRU entry
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{3: prefetch.LevelL2}))
	got := pb.DrainInto(nil, 10)
	want := []prefetch.Request{
		{Addr: region.LineAddr(1, 3), Level: prefetch.LevelL2},
		{Addr: region.LineAddr(7, 5), Level: prefetch.LevelL1},
		{Addr: region.LineAddr(8, 5), Level: prefetch.LevelL1},
	}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPBHoldsManyEntries runs a buffer wider than one pendingSlots word.
func TestPBHoldsManyEntries(t *testing.T) {
	const entries = 130
	pb := newPrefetchBuffer(entries, mem.NewRegion(4096))
	for r := uint64(0); r < entries; r++ {
		pb.Insert(r, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	}
	if got := pb.DrainInto(nil, 2*entries); len(got) != entries {
		t.Errorf("drained %d requests, want one per entry (%d)", len(got), entries)
	}
}

func TestPBDrainZero(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	if got := pb.DrainInto(nil, 0); got != nil {
		t.Errorf("DrainInto(nil, 0) = %v", got)
	}
}

func TestPBSmallRegions(t *testing.T) {
	region := mem.NewRegion(1024) // 16 lines
	pb := newPrefetchBuffer(2, region)
	if len(pb.order) != 15 {
		t.Fatalf("order length = %d, want 15", len(pb.order))
	}
	pb.Insert(5, 14, levelsWith(16, map[int]prefetch.Level{
		1: prefetch.LevelL1, // offset (14+1)%16 = 15
		2: prefetch.LevelL2, // offset 0 (wraps)
	}))
	got := pb.DrainInto(nil, 10)
	if len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	if got[0].Addr != region.LineAddr(5, 15) {
		t.Errorf("first = %#x, want offset 15", uint64(got[0].Addr))
	}
	if got[1].Addr != region.LineAddr(5, 0) {
		t.Errorf("second = %#x, want wrapped offset 0", uint64(got[1].Addr))
	}
}

func TestPBRequeueReissues(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(7, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	got := pb.DrainInto(nil, 10)
	if len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	if more := pb.DrainInto(nil, 10); len(more) != 0 {
		t.Fatal("entry should be exhausted")
	}
	// The system hands the request back: it must re-issue.
	pb.Requeue(7, 1)
	again := pb.DrainInto(nil, 10)
	if len(again) != 1 || again[0].Addr != got[0].Addr {
		t.Fatalf("requeue did not re-arm the target: %v", again)
	}
}

func TestPBRequeueUnknownRegionDropped(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Requeue(99, 1) // must not panic
	if got := pb.DrainInto(nil, 10); len(got) != 0 {
		t.Errorf("unexpected requests %v", got)
	}
}

// TestPBRequeueMapsOffsetsToTargets pins how Requeue finds the target
// a request came from: an offset behind the trigger wraps to the far
// end of the anchored pattern, and the trigger line itself or a region
// the buffer does not hold re-arms nothing.
func TestPBRequeueMapsOffsetsToTargets(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(2, region)
	pb.Insert(7, 10, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 63: prefetch.LevelL2}))
	if got := pb.DrainInto(nil, 10); len(got) != 2 {
		t.Fatalf("drained %v, want offsets 11 and 9", got)
	}
	pb.Requeue(7, 10)  // the trigger line
	pb.Requeue(99, 11) // an unknown region
	if got := pb.DrainInto(nil, 10); len(got) != 0 {
		t.Errorf("re-armed %v", got)
	}
	pb.Requeue(7, 9) // anchored k = 63
	if got := pb.DrainInto(nil, 10); len(got) != 1 || got[0].Addr != region.LineAddr(7, 9) || got[0].Level != prefetch.LevelL2 {
		t.Errorf("after requeueing offset 9 drained %v, want it at L2C", got)
	}
}

func TestPBRequeueNeverIssuedIsNoop(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Insert(7, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	pb.Requeue(7, 1) // not yet issued: pending count must not inflate
	if got := pb.DrainInto(nil, 10); len(got) != 1 {
		t.Errorf("drained %d, want exactly 1", len(got))
	}
}

func TestPBCrossRegionDrainAndRequeue(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(2, region)
	pb.crossRegion = true
	// Trigger at offset 63: anchored k=1 wraps; with projection it
	// targets region+1 offset 0.
	pb.Insert(5, 63, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	got := pb.DrainInto(nil, 10)
	if len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	want := region.LineAddr(6, 0)
	if got[0].Addr != want {
		t.Fatalf("target %#x, want %#x (projected)", uint64(got[0].Addr), uint64(want))
	}
	// Requeue with the projected coordinates finds the entry of region 5.
	pb.Requeue(6, 0)
	again := pb.DrainInto(nil, 10)
	if len(again) != 1 || again[0].Addr != want {
		t.Fatalf("cross-region requeue failed: %v", again)
	}
	// One region on, the trigger's own offset is no target.
	pb.Requeue(6, 63)
	if got := pb.DrainInto(nil, 10); len(got) != 0 {
		t.Errorf("requeue of (6, 63) re-armed %v", got)
	}
}

// TestPBCrossRegionRequeueMisroute pins today's routing of a requeued
// projected target when the next region is buffered too. Requeue looks
// up the target's own region first, so region 10's request projected
// to (11, 2) re-arms region 11's already-issued target at offset 2, and
// region 10's target is lost. A drain that keeps unadmitted targets
// pending where they are (ROADMAP item 5) removes the misroute; this
// test changes with it.
func TestPBCrossRegionRequeueMisroute(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(4, region)
	pb.crossRegion = true
	projected := region.LineAddr(11, 2)

	// Region 11: trigger 0, target k=2 at offset 2, already drained.
	pb.Insert(11, 0, levelsWith(64, map[int]prefetch.Level{2: prefetch.LevelL1}))
	if got := pb.DrainInto(nil, 10); len(got) != 1 || got[0].Addr != projected {
		t.Fatalf("region 11 drained %v, want offset 2", got)
	}
	// Region 10: trigger 60, target k=6 wraps and projects to (11, 2).
	pb.Insert(10, 60, levelsWith(64, map[int]prefetch.Level{6: prefetch.LevelL2}))
	if got := pb.DrainInto(nil, 10); len(got) != 1 || got[0].Addr != projected || got[0].Level != prefetch.LevelL2 {
		t.Fatalf("region 10 drained %v, want the projected L2 target", got)
	}

	pb.Requeue(11, 2)
	i10, _ := pb.lookup(10)
	i11, _ := pb.lookup(11)
	if p := pb.entries[i10].pendingRank; p != 0 {
		t.Errorf("region 10 pendingRank = %#x, want 0 (its target is lost)", p)
	}
	if p := pb.entries[i11].pendingRank; p != 0x4 {
		t.Errorf("region 11 pendingRank = %#x, want 0x4 (its issued target re-armed)", p)
	}
	if got := pb.DrainInto(nil, 10); len(got) != 1 || got[0].Level != prefetch.LevelL1 {
		t.Errorf("redrain = %v, want region 11's L1 target", got)
	}
}

// TestPBPendingSlotsInvariant drives random Insert, DrainInto, Requeue
// and Touch sequences through a small buffer, with and without
// cross-region projection. After every step a slot's pendingSlots bit
// must be set exactly when the slot is valid with a pending target, and
// only real targets may be pending. The first half is what makes PB
// resume terminate: DrainInto visits flagged slots until max requests
// are out, so a flagged slot with nothing pending would spin it forever.
func TestPBPendingSlotsInvariant(t *testing.T) {
	region := mem.NewRegion(1024) // 16 lines
	n := region.Lines()
	rng := rand.New(rand.NewSource(1))
	for _, cross := range []bool{false, true} {
		pb := newPrefetchBuffer(3, region)
		pb.crossRegion = cross
		var issued []prefetch.Request
		for step := 0; step < 5000; step++ {
			switch rng.Intn(4) {
			case 0:
				levels := make([]prefetch.Level, n)
				for k := 1; k < n; k++ {
					if rng.Intn(3) == 0 {
						levels[k] = prefetch.Level(1 + rng.Intn(3))
					}
				}
				pb.Insert(uint64(rng.Intn(5)), rng.Intn(n), levels)
			case 1:
				max := rng.Intn(5)
				got := pb.DrainInto(nil, max)
				if len(got) > max {
					t.Fatalf("DrainInto(nil, %d) returned %d requests", max, len(got))
				}
				issued = append(issued, got...)
			case 2:
				id, off := uint64(rng.Intn(6)), rng.Intn(n)
				if len(issued) > 0 && rng.Intn(2) == 0 {
					r := issued[rng.Intn(len(issued))]
					id, off = region.ID(r.Addr), region.Offset(r.Addr)
				}
				pb.Requeue(id, off)
			case 3:
				pb.Touch(uint64(rng.Intn(6)))
			}
			for i := range pb.entries {
				e := &pb.entries[i]
				flagged := pb.pendingSlots[i>>6]>>uint(i&63)&1 == 1
				if flagged != (e.valid && e.pendingRank != 0) {
					t.Fatalf("cross=%v step %d: slot %d flagged=%v, valid=%v pendingRank=%#x",
						cross, step, i, flagged, e.valid, e.pendingRank)
				}
				if e.pendingRank&^e.targetRank != 0 {
					t.Fatalf("cross=%v step %d: slot %d pends non-targets %#x",
						cross, step, i, e.pendingRank&^e.targetRank)
				}
			}
		}
	}
}
