package core

import (
	"math/bits"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// pbEntry holds one arbitrated prefetch pattern awaiting issue, keyed by
// region (paper Fig 6c bottom).
//
// The per-target issue state is two rank bitmaps rather than a []bool:
// bit r of targetRank marks that order[r] is a real target (level !=
// LevelNone at insert), bit r of pendingRank that it is still awaiting
// issue. Draining walks pendingRank's set bits with TrailingZeros64 —
// nearest-first for free, since ranks are already nearest-first — and a
// requeued target is re-armed with one OR. Issued-but-unacknowledged
// targets are exactly targetRank &^ pendingRank.
type pbEntry struct {
	valid       bool
	region      uint64
	trigger     int              // trigger line offset, to unanchor targets
	levels      []prefetch.Level // anchored target levels; index 0 unused
	targetRank  uint64           // bit r: order[r] is a target
	pendingRank uint64           // bit r: order[r] not yet issued
	lru         uint64
}

// prefetchBuffer is PMP's Prefetch Buffer: a small fully-associative
// LRU store of final prefetch patterns. Prefetches drain nearest-first
// relative to the trigger line; when the prefetch queue fills, draining
// resumes on the next access to the region (the entry is bumped MRU by
// Touch).
type prefetchBuffer struct {
	entries []pbEntry
	region  mem.Region
	// order lists anchored indices nearest-first: 1, n-1, 2, n-2, ...
	// (anchored index k targets line (trigger+k) mod n, so small k is
	// just ahead of the trigger and n-k just behind).
	order []int
	// rankOf inverts order: rankOf[order[r]] == r (rankOf[0] unused).
	rankOf []int
	// hint is the slot of the most recently matched region. Requeues and
	// touches arrive in bursts against one region (a drain bounced off a
	// full MSHR file hands every request of the entry back), so checking
	// it first turns the associative scan into a single compare.
	hint int
	// pendingSlots has bit i set when entries[i] is valid with at least
	// one pending target, so the MRU search visits only drainable
	// entries (usually one) instead of every slot.
	pendingSlots []uint64
	// drainSlot is the slot mruPending last returned, so DrainInto can
	// clear its pending bit without a reverse lookup.
	drainSlot int
	stamp     uint64
	// crossRegion projects wrapping targets into the next region
	// (extension; see core.Config.CrossRegion).
	crossRegion bool
}

// pbStorageBits is the budget of an entries-deep prefetch buffer over
// the region: per entry, the full region tag, 2 bits per prefetchable
// offset (every line but the trigger, which is never prefetched) and
// LRU state.
func pbStorageBits(entries int, region mem.Region) int {
	return entries * ((48 - region.Shift()) + 2*(region.Lines()-1) + mem.CeilLog2(entries))
}

func newPrefetchBuffer(entries int, region mem.Region) *prefetchBuffer {
	n := region.Lines()
	order := make([]int, 0, n-1)
	for d := 1; d <= n/2; d++ {
		order = append(order, d)
		if other := n - d; other != d {
			order = append(order, other)
		}
	}
	rankOf := make([]int, n)
	for r, k := range order {
		rankOf[k] = r
	}
	pb := &prefetchBuffer{
		entries:      make([]pbEntry, entries),
		region:       region,
		order:        order,
		rankOf:       rankOf,
		pendingSlots: make([]uint64, (entries+63)/64),
	}
	// One backing array; each entry's view is capped at n so no entry
	// can grow into its neighbour.
	levels := make([]prefetch.Level, entries*n)
	for i := range pb.entries {
		pb.entries[i].levels = levels[i*n : (i+1)*n : (i+1)*n]
	}
	return pb
}

// Insert stores a freshly arbitrated pattern for the region, replacing
// an existing entry for the same region or the LRU victim (an unused
// slot's lru is 0, so free slots go first).
func (pb *prefetchBuffer) Insert(region uint64, trigger int, levels []prefetch.Level) {
	pb.stamp++
	victim := 0
	oldest := ^uint64(0)
	for i := range pb.entries {
		e := &pb.entries[i]
		if e.valid && e.region == region {
			victim = i
			break
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	pb.hint = victim
	e := &pb.entries[victim]
	e.valid = true
	e.region = region
	e.trigger = trigger
	e.lru = pb.stamp
	copy(e.levels, levels)
	e.targetRank = 0
	for r, k := range pb.order {
		if levels[k] != prefetch.LevelNone {
			e.targetRank |= 1 << uint(r)
		}
	}
	e.pendingRank = e.targetRank
	pb.setPending(victim, e.pendingRank != 0)
}

// setPending records whether slot i has pending targets.
//
//pmp:hotpath
func (pb *prefetchBuffer) setPending(i int, pending bool) {
	if pending {
		pb.pendingSlots[i>>6] |= 1 << uint(i&63)
	} else {
		pb.pendingSlots[i>>6] &^= 1 << uint(i&63)
	}
}

// Touch bumps the region's entry to MRU so draining resumes there. It
// reports whether the region was present.
//
//pmp:hotpath
func (pb *prefetchBuffer) Touch(region uint64) bool {
	i, ok := pb.lookup(region)
	if !ok {
		return false
	}
	pb.stamp++
	pb.entries[i].lru = pb.stamp
	return true
}

// lookup returns the slot holding region's entry. Regions are unique
// across slots (Insert replaces in place), so the hint-first probe is
// exact, not just heuristic.
//
//pmp:hotpath
func (pb *prefetchBuffer) lookup(region uint64) (int, bool) {
	if e := &pb.entries[pb.hint]; e.valid && e.region == region {
		return pb.hint, true
	}
	for i := range pb.entries {
		e := &pb.entries[i]
		if e.valid && e.region == region {
			pb.hint = i
			return i, true
		}
	}
	return 0, false
}

// DrainInto emits up to max requests, MRU entry first, nearest offsets
// first within an entry, appending them to the caller-owned dst: the
// body of PMP's and Design B's IssueInto. The inner walk visits only
// pending targets — one TrailingZeros64 per emitted request — instead
// of scanning every rank of the order.
//
//pmp:hotpath
func (pb *prefetchBuffer) DrainInto(dst []prefetch.Request, max int) []prefetch.Request {
	n := pb.region.Lines()
	emitted := 0
	for emitted < max {
		e := pb.mruPending()
		if e == nil {
			break
		}

		for m := e.pendingRank; m != 0 && emitted < max; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			k := pb.order[r]
			e.pendingRank &^= 1 << uint(r)
			if e.pendingRank == 0 {
				pb.setPending(pb.drainSlot, false)
			}
			regionID := e.region
			raw := e.trigger + k
			if raw >= n && pb.crossRegion {
				regionID++ // project forward instead of wrapping back
			}
			dst = append(dst, prefetch.Request{
				Addr:  pb.region.LineAddr(regionID, raw%n),
				Level: e.levels[k],
			})
			emitted++
		}
		// Fully drained entries stay resident: the system may hand
		// requests back via Requeue when MSHRs are full, and draining
		// resumes on the next access to the region.
	}
	return dst
}

// Requeue re-arms the target at (region, offset) so a later DrainInto
// re-issues it. Unknown regions (entry since replaced) are dropped.
// With cross-region projection a target may live in the entry of the
// preceding region.
//
//pmp:hotpath
func (pb *prefetchBuffer) Requeue(region uint64, offset int) {
	if pb.requeueIn(region, region, offset) {
		return
	}
	// At region 0, region-1 wraps to an ID that no entry holds.
	if pb.crossRegion {
		pb.requeueIn(region-1, region, offset)
	}
}

// requeueIn re-arms the target of `entryRegion` whose projected address
// lands at (targetRegion, offset). It reports whether the entry exists.
//
//pmp:hotpath
func (pb *prefetchBuffer) requeueIn(entryRegion, targetRegion uint64, offset int) bool {
	i, ok := pb.lookup(entryRegion)
	if !ok {
		return false
	}
	e := &pb.entries[i]
	n := pb.region.Lines()
	raw := offset - e.trigger
	if targetRegion == entryRegion+1 {
		raw += n
	} else if raw < 0 {
		raw += n
	}
	if raw > 0 && raw < n {
		// Re-arm only a real target that was actually issued.
		bit := uint64(1) << uint(pb.rankOf[raw])
		e.pendingRank |= e.targetRank &^ e.pendingRank & bit
		if e.pendingRank != 0 {
			pb.setPending(i, true)
		}
	}
	return true
}

// mruPending returns the MRU entry with pending targets (recording its
// slot in drainSlot), walking only the pendingSlots bitmap.
//
//pmp:hotpath
func (pb *prefetchBuffer) mruPending() *pbEntry {
	var best *pbEntry
	var bestLRU uint64
	for w, bmw := range pb.pendingSlots {
		for m := bmw; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			e := &pb.entries[i]
			if best == nil || e.lru > bestLRU {
				best, bestLRU = e, e.lru
				pb.drainSlot = i
			}
		}
	}
	return best
}
