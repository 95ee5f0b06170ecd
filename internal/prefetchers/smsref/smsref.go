// Package smsref implements the classic Spatial Memory Streaming
// prefetcher (Somogyi et al., ISCA'06) that PMP's capture framework
// derives from (paper §II): completed region patterns are stored in a
// Pattern History Table indexed by PC⊕offset and replayed verbatim on
// the next trigger with a matching event. It is the natural reference
// point between DSPatch (OR/AND merging) and Bingo (multi-feature
// lookup).
package smsref

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sms"
)

// A 2K-entry PHT over 2KB regions (the original evaluates several
// sizes; this one is mid-range), behind the shared capture framework's
// filter and accumulation tables.
const (
	regionBytes    = 2048
	phtSets        = 128 // power of two: the event hash masks the set index
	phtWays        = 16
	ftSets, ftWays = 8, 8
	atSets, atWays = 2, 16
)

type phtEntry struct {
	valid bool
	tag   uint32
	bits  mem.BitVector
	lru   uint64
}

// Prefetcher is the SMS prefetcher. Construct with New.
type Prefetcher struct {
	region mem.Region
	fw     *sms.Framework
	pht    [phtSets * phtWays]phtEntry
	stamp  uint64
	q      *prefetch.OutQueue
}

// New constructs an SMS prefetcher.
func New() *Prefetcher {
	region := mem.NewRegion(regionBytes)
	return &Prefetcher{
		region: region,
		fw: sms.New(sms.Config{
			Region: region,
			FTSets: ftSets, FTWays: ftWays,
			ATSets: atSets, ATWays: atWays,
		}),
		q: prefetch.NewOutQueue(2 * region.Lines()),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "sms" }

// event is the original's PC⊕offset trigger event.
func (p *Prefetcher) event(pc uint64, offset int) (int, uint32) {
	h := mem.Mix64(pc<<mem.PageOffsetBits ^ uint64(offset))
	return int(h & (phtSets - 1)), uint32(h >> 34)
}

func (p *Prefetcher) set(idx int) []phtEntry {
	i := idx * phtWays
	return p.pht[i : i+phtWays]
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	trig, isTrigger, closed := p.fw.Observe(a.PC, a.Addr)
	for i := range closed {
		p.learn(closed[i])
	}
	if isTrigger {
		p.predict(trig)
	}
}

// OnEvict implements prefetch.Prefetcher.
func (p *Prefetcher) OnEvict(line mem.Addr) {
	if pat, ok := p.fw.OnEvict(line); ok {
		p.learn(pat)
	}
}

// OnFill implements prefetch.Prefetcher.
func (p *Prefetcher) OnFill(mem.Addr, prefetch.Level, bool) {}

func (p *Prefetcher) learn(pat sms.Pattern) {
	p.stamp++
	idx, tag := p.event(pat.PC, pat.Trigger)
	set := p.set(idx)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag {
			e.bits = pat.Bits // replace with the latest observation
			e.lru = p.stamp
			return
		}
		if !e.valid {
			victim, oldest = i, 0
			continue
		}
		if e.lru < oldest {
			victim, oldest = i, e.lru
		}
	}
	set[victim] = phtEntry{valid: true, tag: tag, bits: pat.Bits, lru: p.stamp}
}

func (p *Prefetcher) predict(trig sms.Trigger) {
	idx, tag := p.event(trig.PC, trig.Offset)
	set := p.set(idx)
	for i := range set {
		e := &set[i]
		if !e.valid || e.tag != tag {
			continue
		}
		p.stamp++
		e.lru = p.stamp
		for off := 0; off < p.region.Lines(); off++ {
			if off != trig.Offset && e.bits.Test(off) {
				p.q.Push(prefetch.Request{
					Addr:  p.region.LineAddr(trig.RegionID, off),
					Level: prefetch.LevelL1,
				})
			}
		}
		return
	}
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// StorageBits implements prefetch.Prefetcher.
func (p *Prefetcher) StorageBits() int {
	entry := 30 + p.region.Lines() + mem.CeilLog2(phtWays)
	return phtSets*phtWays*entry + p.fw.StorageBits()
}
