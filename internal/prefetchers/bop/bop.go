// Package bop implements the Best-Offset Prefetcher (Michaud,
// HPCA'16), a constant-stride competitor discussed in the PMP paper's
// related work (§VI-A): it periodically evaluates a fixed list of
// candidate offsets against recent demand history and prefetches with
// the single best-scoring offset.
//
// A small Recent Requests (RR) table remembers lines whose fetch
// recently completed; during a learning round each candidate offset d
// scores a point when the current access X hits X-d in the RR table
// (meaning a prefetch at offset d would have been timely). When a
// candidate reaches scoreMax, or the round ends, the best offset is
// adopted for the next round.
package bop

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// BOP's parameters, close to the original's.
const (
	rrBits   = 8 // log2 of the recent-requests table's entries
	rrSize   = 1 << rrBits
	scoreMax = 31  // early-exit score
	roundMax = 100 // learning-round length, in tests per candidate
	badScore = 1   // at or below this, prefetching pauses for the round
)

// offsets are the candidate offsets, tested round-robin.
var offsets = [...]int{
	1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16,
	-1, -2, -3, -4, -6, -8,
}

// Prefetcher is BOP. Construct with New.
type Prefetcher struct {
	rr     [rrSize]uint64 // hashed line tags
	scores [len(offsets)]int
	cursor int // round-robin test cursor (one candidate per access)
	round  int
	best   int  // current best offset
	active bool // prefetching enabled for this round
	q      *prefetch.OutQueue
}

// New constructs BOP.
func New() *Prefetcher {
	return &Prefetcher{
		best:   offsets[0],
		active: true,
		q:      prefetch.NewOutQueue(16),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bop" }

func (p *Prefetcher) rrIndex(line uint64) int {
	return int(mem.FoldXOR(mem.Mix64(line), rrBits))
}

// insertRR records a completed line fetch.
func (p *Prefetcher) insertRR(line uint64) {
	p.rr[p.rrIndex(line)] = line
}

func (p *Prefetcher) inRR(line uint64) bool {
	return p.rr[p.rrIndex(line)] == line
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	line := a.Addr.LineID()

	// Learning: test one candidate per access, round-robin (the
	// original's design — testing all candidates at once would bias
	// scores toward whichever candidate is examined right after a
	// reset).
	i := p.cursor
	p.cursor = (p.cursor + 1) % len(offsets)
	if base := int64(line) - int64(offsets[i]); base >= 0 && p.inRR(uint64(base)) {
		p.scores[i]++
	}
	adopted := false
	if p.scores[i] >= scoreMax {
		p.adopt(i)
		adopted = true
	}
	p.round++
	if !adopted && p.round >= roundMax*len(offsets) {
		best := 0
		for j := range p.scores {
			if p.scores[j] > p.scores[best] {
				best = j
			}
		}
		p.adopt(best)
	}

	// The RR table in the original records the *base address* of
	// completed prefetches (X - D at fill time); feeding demand lines
	// approximates that without fill-time plumbing.
	p.insertRR(line)

	if !p.active {
		return
	}
	target := int64(line) + int64(p.best)
	if target < 0 {
		return
	}
	addr := mem.Addr(uint64(target) * mem.LineBytes)
	if addr.PageID() != a.Addr.PageID() {
		return // stay within the page, as the original does
	}
	p.q.Push(prefetch.Request{Addr: addr, Level: prefetch.LevelL1})
}

// adopt ends the round, selecting candidate i.
func (p *Prefetcher) adopt(i int) {
	p.best = offsets[i]
	p.active = p.scores[i] > badScore
	for j := range p.scores {
		p.scores[j] = 0
	}
	p.round = 0
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// OnEvict implements prefetch.Prefetcher.
func (p *Prefetcher) OnEvict(mem.Addr) {}

// OnFill implements prefetch.Prefetcher.
func (p *Prefetcher) OnFill(mem.Addr, prefetch.Level, bool) {}

// StorageBits implements prefetch.Prefetcher: the RR table tags plus
// per-candidate scores (the original reports well under 1KB).
func (p *Prefetcher) StorageBits() int {
	return rrSize*12 + len(offsets)*(8+6)
}
