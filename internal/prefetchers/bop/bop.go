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
// candidate reaches ScoreMax, or the round ends, the best offset is
// adopted for the next round.
package bop

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config tunes BOP.
type Config struct {
	Offsets  []int // candidate offsets (classic list has ±1..8, 10, 12...)
	RRSize   int   // recent-requests table entries (power of two)
	ScoreMax int   // early-exit score
	RoundMax int   // accesses per learning round
	BadScore int   // below this, prefetching pauses for the round
}

// DefaultConfig returns a configuration close to the original.
func DefaultConfig() Config {
	return Config{
		Offsets: []int{
			1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16,
			-1, -2, -3, -4, -6, -8,
		},
		RRSize:   256,
		ScoreMax: 31,
		RoundMax: 100,
		BadScore: 1,
	}
}

// Prefetcher is BOP. Construct with New.
type Prefetcher struct {
	cfg    Config
	rr     []uint64 // hashed line tags
	scores []int
	cursor int // round-robin test cursor (one candidate per access)
	round  int
	best   int  // current best offset
	active bool // prefetching enabled for this round
	q      *prefetch.OutQueue
}

// New constructs BOP; it panics on an empty offset list.
func New(cfg Config) *Prefetcher {
	if len(cfg.Offsets) == 0 {
		panic("bop: need candidate offsets")
	}
	if cfg.RRSize < 16 {
		cfg.RRSize = 16
	}
	for cfg.RRSize&(cfg.RRSize-1) != 0 {
		cfg.RRSize++
	}
	return &Prefetcher{
		cfg:    cfg,
		rr:     make([]uint64, cfg.RRSize),
		scores: make([]int, len(cfg.Offsets)),
		best:   cfg.Offsets[0],
		active: true,
		q:      prefetch.NewOutQueue(16),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bop" }

func (p *Prefetcher) rrIndex(line uint64) int {
	return int(mem.FoldXOR(mem.Mix64(line), mem.CeilLog2(p.cfg.RRSize)))
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
	p.cursor = (p.cursor + 1) % len(p.cfg.Offsets)
	if base := int64(line) - int64(p.cfg.Offsets[i]); base >= 0 && p.inRR(uint64(base)) {
		p.scores[i]++
	}
	adopted := false
	if p.scores[i] >= p.cfg.ScoreMax {
		p.adopt(i)
		adopted = true
	}
	p.round++
	if !adopted && p.round >= p.cfg.RoundMax*len(p.cfg.Offsets) {
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
	p.best = p.cfg.Offsets[i]
	p.active = p.scores[i] > p.cfg.BadScore
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
	return p.cfg.RRSize*12 + len(p.cfg.Offsets)*(8+6)
}
