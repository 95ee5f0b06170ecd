package prefetch

import "pmp/internal/mem"

// OutQueue is the bounded FIFO of pending prefetch requests shared by
// the prefetcher implementations: generated targets are pushed once
// (duplicate lines suppressed) and drained in arrival order by
// IssueInto.
//
// Requests live in a fixed ring buffer, so Push and PopInto never touch
// the Go allocator. Duplicate suppression is a compact per-region line
// bitmap (one {regionID, uint64} pair per 4KB region with pending
// lines) instead of a map[mem.Addr]struct{}: membership is a shift and
// an AND against a handful of L1-resident words.
type OutQueue struct {
	ring []Request
	head int // ring index of the oldest request
	n    int

	// Pending-line bitmaps, one entry per 4KB region with queued lines.
	// Queues are small (tens of slots), so a linear scan over a few
	// 16-byte entries beats hashing.
	regions []regionLines
}

type regionLines struct {
	id   uint64
	mask uint64
}

// regionOf splits a line address into its 4KB-region ID and the line's
// bit within that region's pending mask.
func regionOf(a mem.Addr) (id uint64, bit uint64) {
	return uint64(a) >> mem.PageShift, 1 << (uint64(a) >> mem.LineShift & (mem.LinesPerPage - 1))
}

// NewOutQueue returns a queue bounded at capacity requests. When full,
// Push drops the new request (matching hardware PQ behaviour, where the
// prefetcher simply stalls generation). Non-positive capacities yield a
// queue that accepts nothing.
func NewOutQueue(capacity int) *OutQueue {
	capacity = max(capacity, 0)
	return &OutQueue{
		ring:    make([]Request, capacity),
		regions: make([]regionLines, 0, capacity),
	}
}

// Len returns the number of queued requests.
func (q *OutQueue) Len() int { return q.n }

// Push enqueues a request unless the queue is full or the same line is
// already pending. It reports whether the request was accepted.
//
//pmp:hotpath
func (q *OutQueue) Push(r Request) bool {
	r.Addr = r.Addr.Line()
	if q.n == len(q.ring) {
		return false
	}
	if !q.markPending(r.Addr) {
		return false
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = r
	q.n++
	return true
}

// markPending records line a as pending; it reports false when the line
// was already pending (duplicate).
//
//pmp:hotpath
func (q *OutQueue) markPending(a mem.Addr) bool {
	id, bit := regionOf(a)
	for i := range q.regions {
		if q.regions[i].id == id {
			if q.regions[i].mask&bit != 0 {
				return false
			}
			q.regions[i].mask |= bit
			return true
		}
	}
	if len(q.regions) == cap(q.regions) {
		// Unreachable: each queued line holds a slot and contributes at
		// most one region entry, and NewOutQueue reserved cap entries.
		return true
	}
	q.regions = append(q.regions, regionLines{id: id, mask: bit})
	return true
}

// clearPending releases line a's pending bit, dropping its region entry
// when it empties.
//
//pmp:hotpath
func (q *OutQueue) clearPending(a mem.Addr) {
	id, bit := regionOf(a)
	for i := range q.regions {
		if q.regions[i].id == id {
			q.regions[i].mask &^= bit
			if q.regions[i].mask == 0 {
				last := len(q.regions) - 1
				q.regions[i] = q.regions[last]
				q.regions = q.regions[:last]
			}
			return
		}
	}
}

// PopInto dequeues up to max requests, oldest first, appending them to
// dst. It performs no allocation when dst has capacity, so a
// steady-state Push/PopInto cycle against a reused buffer is
// allocation-free.
//
//pmp:hotpath
func (q *OutQueue) PopInto(dst []Request, max int) []Request {
	for ; max > 0 && q.n > 0; max-- {
		r := q.ring[q.head]
		q.head++
		if q.head == len(q.ring) {
			q.head = 0
		}
		q.n--
		q.clearPending(r.Addr)
		dst = append(dst, r)
	}
	return dst
}
