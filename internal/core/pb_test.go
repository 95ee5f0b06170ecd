package core

import (
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
