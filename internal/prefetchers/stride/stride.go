// Package stride implements a classic PC-indexed stride prefetcher
// (Chen & Baer, 1995): a reference prediction table keyed by load PC
// tracks the last address and stride of each static load; confident
// strides are prefetched several iterations ahead.
package stride

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config sizes the prefetcher.
type Config struct {
	Entries    int // reference prediction table entries (power of two)
	Degree     int // prefetches issued ahead once confident
	ConfMax    int // confidence saturation
	ConfThresh int // confidence needed to prefetch
}

// DefaultConfig returns a 64-entry, degree-4 configuration.
func DefaultConfig() Config {
	return Config{Entries: 64, Degree: 4, ConfMax: 3, ConfThresh: 2}
}

type entry struct {
	valid    bool
	tag      uint64
	lastLine uint64
	stride   int64
	conf     int
}

// Prefetcher is the PC-stride prefetcher. Construct with New.
type Prefetcher struct {
	cfg Config
	rpt []entry
	q   *prefetch.OutQueue
}

// New constructs a stride prefetcher; entries are clamped to a power of
// two of at least 16.
func New(cfg Config) *Prefetcher {
	if cfg.Entries < 16 {
		cfg.Entries = 16
	}
	for cfg.Entries&(cfg.Entries-1) != 0 {
		cfg.Entries++
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	return &Prefetcher{
		cfg: cfg,
		rpt: make([]entry, cfg.Entries),
		q:   prefetch.NewOutQueue(4 * cfg.Degree),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "stride" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	line := a.Addr.LineID()
	idx := mem.HashPC(a.PC, mem.CeilLog2(p.cfg.Entries))
	e := &p.rpt[idx]
	if !e.valid || e.tag != a.PC {
		*e = entry{valid: true, tag: a.PC, lastLine: line}
		return
	}
	stride := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if stride == 0 {
		return // same line: field accesses, no stride information
	}
	if stride == e.stride {
		if e.conf < p.cfg.ConfMax {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf < p.cfg.ConfThresh {
		return
	}
	for i := 1; i <= p.cfg.Degree; i++ {
		target := int64(line) + stride*int64(i)
		if target < 0 {
			break
		}
		level := prefetch.LevelL1
		if i > p.cfg.Degree/2 {
			level = prefetch.LevelL2 // far targets go lower to limit pollution
		}
		p.q.Push(prefetch.Request{
			Addr:  mem.Addr(uint64(target) * mem.LineBytes),
			Level: level,
		})
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

// StorageBits implements prefetch.Prefetcher: each RPT entry holds a
// PC tag (16b folded), last line (36b), stride (8b) and confidence (2b).
func (p *Prefetcher) StorageBits() int {
	return p.cfg.Entries * (16 + 36 + 8 + 2)
}
