// Package spp implements the Signature Path Prefetcher (Kim et al.,
// MICRO'16) with the Perceptron Prefetch Filter (Bhatia et al.,
// ISCA'19) — the delta-sequence competitor in the PMP paper's
// evaluation ("SPP+PPF").
//
// SPP compresses the recent delta history of each page into a
// signature, looks the signature up in a pattern table of delta
// candidates with confidence counters, and walks the signature path
// ahead of the demand stream (lookahead), multiplying per-step
// confidences. The PPF is a hashed perceptron over nine features that
// vetoes low-quality proposals and is trained online from prefetch
// outcomes.
package spp

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// SPP+PPF's parameters, at the DPC-3 scale (~48.4KB in the paper's
// Table V).
const (
	stBits    = 8 // log2 of the signature table's entries (pages tracked)
	stEntries = 1 << stBits
	ptBits    = 9 // log2 of the pattern table's entries (signatures)
	ptEntries = 1 << ptBits
	deltasPer = 4 // delta slots per pattern table entry
	maxDepth  = 8 // lookahead depth bound
	// With the per-step decay, the first two lookahead hops of a fully
	// confident path clear fillThresh and fill L1D (the original fills
	// its own level aggressively — paper Fig 10 shows SPP+PPF among the
	// heaviest useless-L1D producers); the next two fill L2C, and the
	// fifth falls below pfThresh, so no walk reaches maxDepth.
	fillThresh = 0.50 // path confidence for L1D fills
	pfThresh   = 0.25 // path confidence to keep prefetching (L2C fills)
	// decay is the per-step global confidence attenuation of the
	// lookahead walk (the original's quantized path-confidence product
	// shrinks every hop even for perfectly repeating deltas).
	decay = 0.75
)

type stEntry struct {
	valid      bool
	tag        uint64
	lastOffset int
	sig        uint32

	// Lookahead cursor: the walk continues from where the previous
	// access's walk stopped, so each line is proposed at most once (the
	// original's per-page lookahead state).
	laOffset int
	laSig    uint32
	laConf   float64
	laDepth  int
}

type ptDelta struct {
	delta int8
	count uint8
}

type ptEntry struct {
	sigCount uint8
	deltas   [deltasPer]ptDelta
}

// issueRecord remembers the PPF features of an in-flight prefetch so
// the perceptron can be trained when its outcome is known.
type issueRecord struct {
	valid    bool
	line     mem.Addr
	features [numFeatures]uint32
}

// Prefetcher is SPP+PPF. Construct with New.
type Prefetcher struct {
	st [stEntries]stEntry
	pt [ptEntries]ptEntry
	q  *prefetch.OutQueue

	ppf     perceptron
	records [256]issueRecord
	recIdx  int
}

// New constructs SPP+PPF.
func New() *Prefetcher {
	return &Prefetcher{q: prefetch.NewOutQueue(64)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "spp-ppf" }

func updateSig(sig uint32, delta int) uint32 {
	d := uint32(delta) & 0x3f
	return (sig<<3 ^ d) & 0xfff
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	page := a.Addr.PageID()
	offset := a.Addr.PageOffset()
	idx := mem.FoldXOR(mem.Mix64(page), stBits)
	e := &p.st[idx]

	if !e.valid || e.tag != page {
		*e = stEntry{valid: true, tag: page, lastOffset: offset}
		return
	}
	delta := offset - e.lastOffset
	if delta == 0 {
		return
	}
	// Learn the transition sig -> delta.
	p.learn(e.sig, delta)
	e.sig = updateSig(e.sig, delta)
	e.lastOffset = offset

	// The demand stream caught up with (or passed) the lookahead
	// cursor: restart the walk from the current position at full
	// confidence.
	if e.laOffset <= offset {
		e.laOffset = offset
		e.laSig = e.sig
		e.laConf = 1.0
		e.laDepth = 0
	}
	p.lookahead(a, page, e)
}

func (p *Prefetcher) ptIndex(sig uint32) int {
	return int(mem.FoldXOR(mem.Mix64(uint64(sig)), ptBits))
}

func (p *Prefetcher) learn(sig uint32, delta int) {
	e := &p.pt[p.ptIndex(sig)]
	if e.sigCount == 255 {
		// Age all counters to keep confidences adaptive.
		e.sigCount >>= 1
		for i := range e.deltas {
			e.deltas[i].count >>= 1
		}
	}
	e.sigCount++
	d8 := int8(clampDelta(delta))
	slot := -1
	minCount := uint8(255)
	for i := range e.deltas {
		if e.deltas[i].count > 0 && e.deltas[i].delta == d8 {
			e.deltas[i].count++
			return
		}
		if e.deltas[i].count < minCount {
			minCount, slot = e.deltas[i].count, i
		}
	}
	e.deltas[slot] = ptDelta{delta: d8, count: 1}
}

// lookahead advances the page's cursor along the signature path,
// proposing each line once, until the path confidence drops below
// pfThresh, the depth bound is hit, or the page ends.
func (p *Prefetcher) lookahead(a prefetch.Access, page uint64, st *stEntry) {
	for st.laDepth < maxDepth {
		e := &p.pt[p.ptIndex(st.laSig)]
		if e.sigCount == 0 {
			return
		}
		best := -1
		var bestCount uint8
		for i := range e.deltas {
			if e.deltas[i].count > bestCount {
				bestCount, best = e.deltas[i].count, i
			}
		}
		if best < 0 || bestCount == 0 {
			return
		}
		delta := int(e.deltas[best].delta)
		conf := st.laConf * decay * float64(bestCount) / float64(e.sigCount)
		if conf < pfThresh {
			return
		}
		next := st.laOffset + delta
		if next < 0 || next >= mem.LinesPerPage {
			return // SPP as configured does not cross pages
		}
		st.laConf = conf
		st.laOffset = next
		st.laSig = updateSig(st.laSig, delta)
		st.laDepth++

		target := mem.Addr(page*mem.PageBytes + uint64(next)*mem.LineBytes)
		level := prefetch.LevelL2
		if conf >= fillThresh {
			level = prefetch.LevelL1
		}
		feats := p.ppf.features(a.PC, target, delta, st.laDepth, st.laSig, conf)
		if p.ppf.sum(feats) < tau {
			// Perceptron veto: the proposal is dropped (no outcome, so
			// no training either).
			continue
		}
		if p.q.Push(prefetch.Request{Addr: target, Level: level}) {
			p.remember(target.Line(), feats)
		}
	}
}

func (p *Prefetcher) remember(line mem.Addr, feats [numFeatures]uint32) {
	p.records[p.recIdx] = issueRecord{valid: true, line: line, features: feats}
	p.recIdx = (p.recIdx + 1) % len(p.records)
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// OnEvict implements prefetch.Prefetcher.
func (p *Prefetcher) OnEvict(mem.Addr) {}

// OnFill implements prefetch.Prefetcher: train the perceptron with the
// prefetch outcome.
func (p *Prefetcher) OnFill(line mem.Addr, _ prefetch.Level, useful bool) {
	for i := range p.records {
		r := &p.records[i]
		if r.valid && r.line == line {
			p.ppf.train(r.features, useful)
			r.valid = false
			return
		}
	}
}

// StorageBits implements prefetch.Prefetcher: ST + PT + PPF weight
// tables + the outcome records. The PPF's nine 4K-entry weight tables
// dominate, as in the original (paper Table V: 48.4KB total).
func (p *Prefetcher) StorageBits() int {
	st := stEntries * (16 + 6 + 12) // tag + last offset + signature
	pt := ptEntries * (8 + deltasPer*(7+8))
	ppf := numFeatures * tableSize * weightBits
	rec := len(p.records) * (36 + numFeatures*12 + 8)
	return st + pt + ppf + rec
}

func clampDelta(d int) int {
	if d > 63 {
		return 63
	}
	if d < -63 {
		return -63
	}
	return d
}
