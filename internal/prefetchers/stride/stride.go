// Package stride implements a classic PC-indexed stride prefetcher
// (Chen & Baer, 1995): a reference prediction table keyed by load PC
// tracks the last address and stride of each static load; confident
// strides are prefetched several iterations ahead.
package stride

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// The reference prediction table: 64 entries, degree 4.
const (
	rptBits    = 6 // log2 of the table's entries
	rptEntries = 1 << rptBits
	degree     = 4 // prefetches issued ahead once confident
	confMax    = 3 // confidence saturation
	confThresh = 2 // confidence needed to prefetch
)

type entry struct {
	valid    bool
	tag      uint64
	lastLine uint64
	stride   int64
	conf     int
}

// Prefetcher is the PC-stride prefetcher. Construct with New.
type Prefetcher struct {
	rpt [rptEntries]entry
	q   *prefetch.OutQueue
}

// New constructs a stride prefetcher.
func New() *Prefetcher {
	return &Prefetcher{q: prefetch.NewOutQueue(4 * degree)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "stride" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	line := a.Addr.LineID()
	idx := mem.HashPC(a.PC, rptBits)
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
		if e.conf < confMax {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf < confThresh {
		return
	}
	for i := 1; i <= degree; i++ {
		target := int64(line) + stride*int64(i)
		if target < 0 {
			break
		}
		level := prefetch.LevelL1
		if i > degree/2 {
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
	return rptEntries * (16 + 36 + 8 + 2)
}
