// Package dspatch implements the Dual Spatial Pattern prefetcher (Bera
// et al., MICRO'19), the lightweight bit-vector competitor in the PMP
// paper's evaluation.
//
// DSPatch records two program-centric spatial patterns per PC
// signature: CovP, the bit-wise OR of observed patterns (coverage
// biased), and AccP, the bit-wise AND (accuracy biased). At prediction
// time one of the two is replayed depending on memory-bandwidth
// pressure: CovP when bandwidth is plentiful, AccP when it is scarce.
//
// Faithful simplification: the original measures DRAM bandwidth with
// hardware counters; here bandwidth pressure is estimated from the
// recent useless-prefetch ratio reported through prefetch feedback,
// which tracks the same quantity the switch exists to protect (wasted
// bus transfers). See DESIGN.md.
package dspatch

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sms"
)

// DSPatch's geometry, after the paper's ~3.6KB budget: 64 SPT
// entries of dual 64-bit vectors over 4KB regions, behind the shared
// capture framework's filter and accumulation tables.
const (
	regionBytes = mem.DefaultRegion
	sptEntries  = 64 // signature prediction table entries (power of two)
	// uselessHigh is the recent-useless fraction above which DSPatch
	// switches from CovP to AccP.
	uselessHigh    = 0.5
	ftSets, ftWays = 8, 8
	atSets, atWays = 2, 16
)

type sptEntry struct {
	valid   bool
	covP    mem.BitVector // OR of anchored patterns
	accP    mem.BitVector // AND of anchored patterns
	trained uint8         // saturating pattern count
}

// Prefetcher is DSPatch. Construct with New.
type Prefetcher struct {
	region mem.Region
	fw     *sms.Framework
	spt    [sptEntries]sptEntry
	q      *prefetch.OutQueue

	// bandwidth-pressure proxy: sliding outcome window
	outcomes   [64]bool // true = useful
	outcomeIdx int
	outcomeN   int
}

// New constructs DSPatch.
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
func (p *Prefetcher) Name() string { return "dspatch" }

func (p *Prefetcher) sigIndex(pc uint64) int {
	return int(mem.Mix64(pc) & (sptEntries - 1))
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

// OnFill implements prefetch.Prefetcher: feed the bandwidth-pressure
// proxy.
func (p *Prefetcher) OnFill(_ mem.Addr, _ prefetch.Level, useful bool) {
	p.outcomes[p.outcomeIdx] = useful
	p.outcomeIdx = (p.outcomeIdx + 1) % len(p.outcomes)
	if p.outcomeN < len(p.outcomes) {
		p.outcomeN++
	}
}

// uselessRatio returns the fraction of recent prefetches that were
// useless; 0 until enough feedback accumulates.
func (p *Prefetcher) uselessRatio() float64 {
	if p.outcomeN < len(p.outcomes)/2 {
		return 0
	}
	useless := 0
	for i := 0; i < p.outcomeN; i++ {
		if !p.outcomes[i] {
			useless++
		}
	}
	return float64(useless) / float64(p.outcomeN)
}

func (p *Prefetcher) learn(pat sms.Pattern) {
	anchored := pat.Anchored()
	e := &p.spt[p.sigIndex(pat.PC)]
	if !e.valid {
		*e = sptEntry{valid: true, covP: anchored, accP: anchored, trained: 1}
		return
	}
	e.covP = e.covP.Or(anchored)
	e.accP = e.accP.And(anchored)
	if e.trained < 255 {
		e.trained++
	}
}

func (p *Prefetcher) predict(trig sms.Trigger) {
	e := &p.spt[p.sigIndex(trig.PC)]
	if !e.valid || e.trained < 2 {
		return
	}
	pattern := e.covP
	if p.uselessRatio() >= uselessHigh {
		pattern = e.accP
	}
	n := p.region.Lines()
	for k := 1; k < n; k++ {
		if !pattern.Test(k) {
			continue
		}
		off := (trig.Offset + k) % n
		p.q.Push(prefetch.Request{
			Addr:  p.region.LineAddr(trig.RegionID, off),
			Level: prefetch.LevelL1,
		})
	}
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// StorageBits implements prefetch.Prefetcher: dual bit vectors plus a
// training counter per SPT entry, plus the capture framework.
func (p *Prefetcher) StorageBits() int {
	entry := 2*p.region.Lines() + 8
	return sptEntries*entry + p.fw.StorageBits()
}
