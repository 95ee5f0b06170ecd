// Package sandbox implements the Sandbox Prefetcher (Pugsley et al.,
// HPCA'14), discussed in the PMP paper's related work (§VI-A): like
// BOP it evaluates candidate offsets, but instead of checking real
// request history it records *fake* prefetches in a Bloom filter (the
// sandbox) and scores a candidate when a later demand access hits its
// fake prefetch.
package sandbox

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// The sandbox prefetcher's parameters, close to the original's.
const (
	filterBits = 2048         // bloom filter size in bits (power of two)
	roundLen   = 256          // accesses each candidate is sandboxed for
	threshold  = roundLen / 8 // score needed to prefetch with a candidate
	degree     = 2            // prefetch degree once a candidate qualifies
	// maxQualified caps how many qualified offsets issue per access
	// (the original bounds aggregate prefetch aggressiveness).
	maxQualified = 2
)

// offsets are the candidate offsets, evaluated round-robin.
var offsets = [...]int{1, 2, 3, 4, -1, -2, 6, 8}

// Prefetcher is the sandbox prefetcher. Construct with New.
type Prefetcher struct {
	filter [filterBits / 64]uint64 // bloom filter bitmap
	cand   int                     // candidate currently in the sandbox
	score  int
	count  int
	// qualified marks the candidates that qualified in their last
	// sandbox round.
	qualified [len(offsets)]bool
	q         *prefetch.OutQueue
}

// New constructs a sandbox prefetcher.
func New() *Prefetcher {
	return &Prefetcher{q: prefetch.NewOutQueue(4 * degree)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "sandbox" }

func (p *Prefetcher) bitFor(line uint64) (int, uint64) {
	h := mem.Mix64(line) & (filterBits - 1)
	return int(h / 64), 1 << (h % 64)
}

func (p *Prefetcher) addFake(line uint64) {
	w, b := p.bitFor(line)
	p.filter[w] |= b
}

func (p *Prefetcher) hitFake(line uint64) bool {
	w, b := p.bitFor(line)
	return p.filter[w]&b != 0
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	line := a.Addr.LineID()

	// Score the sandboxed candidate: did an earlier fake prefetch
	// predict this access?
	if p.hitFake(line) {
		p.score++
	}
	// Issue the candidate's fake prefetch for this access.
	if t := int64(line) + int64(offsets[p.cand]); t >= 0 {
		p.addFake(uint64(t))
	}

	p.count++
	if p.count >= roundLen {
		p.qualified[p.cand] = p.score >= threshold
		p.score, p.count = 0, 0
		p.cand = (p.cand + 1) % len(offsets)
		clear(p.filter[:])
	}

	// Real prefetching with the leading qualified offsets.
	used := 0
	for i, off := range offsets {
		if !p.qualified[i] {
			continue
		}
		if used >= maxQualified {
			break
		}
		used++
		for deg := 1; deg <= degree; deg++ {
			t := int64(line) + int64(off*deg)
			if t < 0 {
				break
			}
			addr := mem.Addr(uint64(t) * mem.LineBytes)
			if addr.PageID() != a.Addr.PageID() {
				break
			}
			level := prefetch.LevelL1
			if deg > 1 {
				level = prefetch.LevelL2
			}
			p.q.Push(prefetch.Request{Addr: addr, Level: level})
		}
	}
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

// StorageBits implements prefetch.Prefetcher: the bloom filter plus
// per-offset state.
func (p *Prefetcher) StorageBits() int {
	return filterBits + len(offsets)*(8+10) + 20
}
