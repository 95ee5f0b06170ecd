// Package bingo implements the Bingo spatial data prefetcher
// (Bakhshalipour et al., HPCA'19; DPC-3 version), the strongest
// bit-vector competitor in the PMP paper's evaluation.
//
// Bingo's key idea is multi-feature lookup over one pattern history
// table: patterns are stored under their long, most-discriminating
// event (PC+Address) but the table is indexed by the short event
// (PC+Offset). A lookup first tries to match the long event's tag — a
// high-confidence match whose whole pattern is replayed into L1D — and
// otherwise falls back to the short event, voting across every entry of
// the indexed set: offsets present in at least half the matching
// patterns fill L1D, offsets present in any pattern fill L2C (the
// DPC-3 multi-level fill policy).
//
// The PMP paper evaluates an "enhanced" Bingo whose pattern table is
// doubled to 16K entries (~127.8KB); that is this package's default.
package bingo

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sms"
)

// Config sizes Bingo.
type Config struct {
	RegionBytes int // Bingo's region (2KB in the original)
	PHTSets     int
	PHTWays     int
	// L1DVoteFrac is the fraction of short-event-matching patterns that
	// must contain an offset for it to fill into L1D on fallback.
	L1DVoteFrac    float64
	FTSets, FTWays int
	ATSets, ATWays int
}

// DefaultConfig returns the enhanced (doubled) DPC-3 configuration used
// in the PMP paper: 16K-entry, 16-way PHT over 2KB regions.
func DefaultConfig() Config {
	return Config{
		RegionBytes: 2048,
		PHTSets:     1024,
		PHTWays:     16,
		L1DVoteFrac: 0.5,
		FTSets:      8, FTWays: 8,
		ATSets: 2, ATWays: 16,
	}
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.RegionBytes < 2*mem.LineBytes || c.RegionBytes > mem.PageBytes || c.RegionBytes&(c.RegionBytes-1) != 0 {
		return errBadRegion
	}
	if c.PHTSets <= 0 || c.PHTSets&(c.PHTSets-1) != 0 {
		return errBadSets
	}
	if c.PHTWays <= 0 {
		return errBadWays
	}
	if !(c.L1DVoteFrac >= 0 && c.L1DVoteFrac <= 1) {
		return errBadVote
	}
	return c.smsConfig().Validate()
}

// smsConfig is the capture geometry New builds; the region size must
// already be valid.
func (c Config) smsConfig() sms.Config {
	return sms.Config{
		Region: mem.NewRegion(c.RegionBytes),
		FTSets: c.FTSets, FTWays: c.FTWays,
		ATSets: c.ATSets, ATWays: c.ATWays,
	}
}

var (
	errBadRegion = configError("bingo: region bytes must be a power of two in [128, 4096]")
	errBadSets   = configError("bingo: PHT sets must be a positive power of two")
	errBadWays   = configError("bingo: PHT ways must be positive")
	errBadVote   = configError("bingo: L1D vote fraction must be in [0, 1]")
)

type configError string

func (e configError) Error() string { return string(e) }

type phtEntry struct {
	valid   bool
	longTag uint32 // hashed PC+Address (the long event)
	bits    mem.BitVector
	lru     uint64
}

// Prefetcher is Bingo. Construct with New.
type Prefetcher struct {
	cfg    Config
	region mem.Region
	fw     *sms.Framework
	pht    []phtEntry
	stamp  uint64
	q      *prefetch.OutQueue
}

// New constructs Bingo; it panics on an invalid configuration.
func New(cfg Config) *Prefetcher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fw := sms.New(cfg.smsConfig())
	region := fw.Region()
	p := &Prefetcher{
		cfg:    cfg,
		region: region,
		fw:     fw,
		pht:    make([]phtEntry, cfg.PHTSets*cfg.PHTWays),
		q:      prefetch.NewOutQueue(2 * region.Lines()),
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bingo" }

// shortIndex hashes the short event (PC+Offset) into a PHT set. The
// explicit mask (rather than a width-0 fold) keeps degenerate 1-set
// configurations in range.
func (p *Prefetcher) shortIndex(pc uint64, offset int) uint64 {
	key := pc<<mem.PageOffsetBits ^ uint64(offset)
	return mem.Mix64(key) & uint64(p.cfg.PHTSets-1)
}

// longTag hashes the long event (PC+Address).
func longTag(pc uint64, lineAddr mem.Addr) uint32 {
	return uint32(mem.FoldXOR(mem.Mix64(pc^uint64(lineAddr)*0x9e37), 30))
}

func (p *Prefetcher) set(idx uint64) []phtEntry {
	i := idx * uint64(p.cfg.PHTWays)
	return p.pht[i : i+uint64(p.cfg.PHTWays)]
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

// learn inserts or refreshes the PHT entry for the completed pattern
// under its long event. The stored pattern is replaced by the latest
// observation, as in the original design.
func (p *Prefetcher) learn(pat sms.Pattern) {
	p.stamp++
	idx := p.shortIndex(pat.PC, pat.Trigger)
	tag := longTag(pat.PC, pat.TriggerAddr.Line())
	set := p.set(idx)

	victim := 0
	oldest := ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == tag {
			e.bits = pat.Bits
			e.lru = p.stamp
			return
		}
		if !e.valid {
			victim = i
			oldest = 0
			continue
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	set[victim] = phtEntry{valid: true, longTag: tag, bits: pat.Bits, lru: p.stamp}
}

// predict looks the trigger up by long event first; a match replays its
// whole pattern into L1D. Otherwise it falls back to the short event,
// voting across every valid entry of the indexed set.
func (p *Prefetcher) predict(trig sms.Trigger) {
	idx := p.shortIndex(trig.PC, trig.Offset)
	tag := longTag(trig.PC, trig.Addr.Line())
	set := p.set(idx)
	n := p.region.Lines()

	for i := range set {
		e := &set[i]
		if e.valid && e.longTag == tag {
			p.stamp++
			e.lru = p.stamp // a used entry must not be the LRU victim
			for off := 0; off < n; off++ {
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

	// Short-event fallback: vote across the set. A region is at most a
	// page, so n <= LinesPerPage and the tally fits on the stack.
	var votes [mem.LinesPerPage]int
	voters := 0
	for i := range set {
		e := &set[i]
		if !e.valid {
			continue
		}
		voters++
		for off := 0; off < n; off++ {
			if e.bits.Test(off) {
				votes[off]++
			}
		}
	}
	if voters == 0 {
		return
	}
	l1Need := int(p.cfg.L1DVoteFrac*float64(voters) + 0.5)
	if l1Need < 1 {
		l1Need = 1
	}
	// L2C fills also need real support — a single stale pattern in a
	// 16-way set must not spray the region.
	l2Need := voters / 4
	if l2Need < 1 {
		l2Need = 1
	}
	// Fallback predictions mostly fill L2 (the DPC-3 policy): only
	// high-vote offsets near the trigger are confident enough for L1D.
	l1Budget := 4
	for d := 1; d < n; d++ {
		for _, off := range []int{trig.Offset + d, trig.Offset - d} {
			if off < 0 || off >= n || votes[off] < l2Need {
				continue
			}
			level := prefetch.LevelL2
			if votes[off] >= l1Need && l1Budget > 0 {
				level = prefetch.LevelL1
				l1Budget--
			}
			p.q.Push(prefetch.Request{
				Addr:  p.region.LineAddr(trig.RegionID, off),
				Level: level,
			})
		}
	}
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// StorageBits implements prefetch.Prefetcher: the PHT dominates — each
// entry holds a 30b long tag, the pattern bit vector and LRU state. The
// enhanced 16K-entry configuration lands near the paper's Table V
// figure of 127.8KB.
func (p *Prefetcher) StorageBits() int {
	entry := 30 + p.region.Lines() + mem.CeilLog2(p.cfg.PHTWays)
	return p.cfg.PHTSets*p.cfg.PHTWays*entry + p.fw.StorageBits()
}
