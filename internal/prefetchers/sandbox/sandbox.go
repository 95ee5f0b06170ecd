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

// Config tunes the sandbox prefetcher.
type Config struct {
	Offsets    []int // candidate offsets evaluated round-robin
	FilterBits int   // bloom filter size in bits (power of two)
	RoundLen   int   // accesses each candidate is sandboxed for
	Threshold  int   // score needed to prefetch with a candidate
	Degree     int   // prefetch degree once a candidate qualifies
	// MaxQualified caps how many qualified offsets issue per access
	// (the original bounds aggregate prefetch aggressiveness).
	MaxQualified int
}

// DefaultConfig returns a configuration close to the original.
func DefaultConfig() Config {
	return Config{
		Offsets:      []int{1, 2, 3, 4, -1, -2, 6, 8},
		FilterBits:   2048,
		RoundLen:     256,
		Threshold:    calcThreshold(256),
		Degree:       2,
		MaxQualified: 2,
	}
}

func calcThreshold(roundLen int) int { return roundLen / 8 }

// Prefetcher is the sandbox prefetcher. Construct with New.
type Prefetcher struct {
	cfg    Config
	filter []uint64 // bloom filter bitmap
	cand   int      // candidate currently in the sandbox
	score  int
	count  int
	// qualified offsets and their degree-scaled scores from the last
	// full cycle through the candidates
	qualified map[int]bool
	q         *prefetch.OutQueue
}

// New constructs a sandbox prefetcher; it panics on an empty offset
// list.
func New(cfg Config) *Prefetcher {
	if len(cfg.Offsets) == 0 {
		panic("sandbox: need candidate offsets")
	}
	if cfg.FilterBits < 64 {
		cfg.FilterBits = 64
	}
	for cfg.FilterBits&(cfg.FilterBits-1) != 0 {
		cfg.FilterBits++
	}
	return &Prefetcher{
		cfg:       cfg,
		filter:    make([]uint64, cfg.FilterBits/64),
		qualified: map[int]bool{},
		q:         prefetch.NewOutQueue(4 * cfg.Degree),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "sandbox" }

func (p *Prefetcher) bitFor(line uint64) (int, uint64) {
	h := mem.Mix64(line) & uint64(p.cfg.FilterBits-1)
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
	d := p.cfg.Offsets[p.cand]
	if t := int64(line) + int64(d); t >= 0 {
		p.addFake(uint64(t))
	}

	p.count++
	if p.count >= p.cfg.RoundLen {
		p.qualified[d] = p.score >= p.cfg.Threshold
		p.score, p.count = 0, 0
		p.cand = (p.cand + 1) % len(p.cfg.Offsets)
		clear(p.filter)
	}

	// Real prefetching with the leading qualified offsets.
	used := 0
	for _, off := range p.cfg.Offsets {
		if !p.qualified[off] {
			continue
		}
		if p.cfg.MaxQualified > 0 && used >= p.cfg.MaxQualified {
			break
		}
		used++
		for deg := 1; deg <= p.cfg.Degree; deg++ {
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
	return p.cfg.FilterBits + len(p.cfg.Offsets)*(8+10) + 20
}
