// Package vldp implements the Variable Length Delta Prefetcher
// (Shevgoor et al., MICRO'15), the delta-sequence competitor family
// discussed in the PMP paper's related work (§VI-B): per-page delta
// histories are matched against Delta Prediction Tables (DPTs) of
// increasing history length, longest match first.
package vldp

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// VLDP's tables, near the original's scale.
const (
	dhbBits    = 6 // log2 of the delta history buffer's entries (pages tracked)
	dhbEntries = 1 << dhbBits
	dptEntries = 64 // entries per delta prediction table (power of two)
	tables     = 3  // DPT count = max history length, as in the original
	degree     = 4  // prefetches per prediction
)

type dhbEntry struct {
	valid   bool
	tag     uint64
	lastOff int
	deltas  [3]int8 // most recent first
	n       int
}

type dptEntry struct {
	valid bool
	tag   uint32
	pred  int8
	conf  uint8 // 2-bit confidence
}

// Prefetcher is VLDP. Construct with New.
type Prefetcher struct {
	dhb [dhbEntries]dhbEntry
	dpt [tables][dptEntries]dptEntry // dpt[k]: match on history length k+1
	q   *prefetch.OutQueue
}

// New constructs VLDP.
func New() *Prefetcher {
	return &Prefetcher{q: prefetch.NewOutQueue(4 * degree)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "vldp" }

// key hashes a delta history of length k+1 into a DPT slot and tag.
func (p *Prefetcher) key(deltas []int8) (int, uint32) {
	var h uint64
	for _, d := range deltas {
		h = h<<7 ^ uint64(uint8(d))
	}
	h = mem.Mix64(h)
	return int(h & (dptEntries - 1)), uint32(h >> 40)
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	page := a.Addr.PageID()
	off := a.Addr.PageOffset()
	idx := mem.FoldXOR(mem.Mix64(page), dhbBits)
	e := &p.dhb[idx]

	if !e.valid || e.tag != page {
		*e = dhbEntry{valid: true, tag: page, lastOff: off}
		return
	}
	delta := off - e.lastOff
	if delta == 0 {
		return
	}
	e.lastOff = off
	d8 := int8(clamp(delta))

	// Learn: each history length predicts this delta.
	for k := 0; k < tables && k < e.n; k++ {
		p.learn(e.deltas[:k+1], d8)
	}
	// Shift history (most recent first).
	copy(e.deltas[1:], e.deltas[:2])
	e.deltas[0] = d8
	if e.n < 3 {
		e.n++
	}

	p.predict(a.Addr, e)
}

func (p *Prefetcher) learn(hist []int8, next int8) {
	slot, tag := p.key(hist)
	t := &p.dpt[len(hist)-1][slot]
	if !t.valid || t.tag != tag {
		if t.valid && t.conf > 0 {
			t.conf--
			return
		}
		*t = dptEntry{valid: true, tag: tag, pred: next, conf: 1}
		return
	}
	if t.pred == next {
		if t.conf < 3 {
			t.conf++
		}
	} else if t.conf > 0 {
		t.conf--
	} else {
		t.pred = next
		t.conf = 1
	}
}

// predict walks the matched delta chain, longest history first.
func (p *Prefetcher) predict(addr mem.Addr, e *dhbEntry) {
	page := addr.PageID()
	cur := addr.PageOffset()
	hist := e.deltas
	n := e.n
	for step := 0; step < degree; step++ {
		var best *dptEntry
		// Longest-match-first lookup.
		for k := min(tables, n); k >= 1; k-- {
			slot, tag := p.key(hist[:k])
			t := &p.dpt[k-1][slot]
			if t.valid && t.tag == tag && t.conf >= 2 {
				best = t
				break
			}
		}
		if best == nil {
			return
		}
		next := cur + int(best.pred)
		if next < 0 || next >= mem.LinesPerPage {
			return
		}
		cur = next
		level := prefetch.LevelL1
		if step > 0 {
			level = prefetch.LevelL2
		}
		p.q.Push(prefetch.Request{
			Addr:  mem.Addr(page*mem.PageBytes + uint64(cur)*mem.LineBytes),
			Level: level,
		})
		// Extend the speculative history with the predicted delta.
		copy(hist[1:], hist[:2])
		hist[0] = best.pred
		if n < 3 {
			n++
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

// StorageBits implements prefetch.Prefetcher.
func (p *Prefetcher) StorageBits() int {
	dhb := dhbEntries * (16 + 6 + 3*7 + 2)
	dpt := tables * dptEntries * (24 + 7 + 2)
	return dhb + dpt
}

func clamp(d int) int {
	if d > 63 {
		return 63
	}
	if d < -63 {
		return -63
	}
	return d
}
