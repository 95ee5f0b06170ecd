package core

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sms"
)

// PMP is the Pattern Merging Prefetcher. Construct with New.
//
// Training (paper Fig 7, left): every L1D load runs through the SMS
// capture framework; completed region patterns are anchored on their
// trigger offset and merged into the Offset Pattern Table and the
// (coarse) PC Pattern Table.
//
// Prefetching (paper Fig 7, right): when a load triggers a fresh
// region, both tables are indexed (trigger-offset feature and hashed-PC
// feature), candidate prefetch patterns are extracted with the
// configured scheme, arbitrated into per-offset target levels, and the
// final pattern is stored in the Prefetch Buffer from which requests
// drain nearest-first as prefetch-queue slots free up.
type PMP struct {
	cfg    Config
	region mem.Region
	fw     *sms.Framework
	ext    extractor
	pb     *prefetchBuffer

	// Pattern tables: bit-parallel counter rows (64/bits counters per
	// uint64 word, SWAR merge/halve/compare).
	opt *mem.PackedCounterTable // primary table (trigger-offset indexed)
	ppt *mem.PackedCounterTable // supplement table (PC indexed, coarse)

	// scratch buffers reused across predictions
	optLevels []prefetch.Level
	pptLevels []prefetch.Level
	final     []prefetch.Level

	stats Stats
}

// Stats counts PMP-internal training/prediction activity (useful in
// tests and the analysis tooling; the simulator measures performance
// externally).
type Stats struct {
	PatternsMerged uint64
	Predictions    uint64
	TargetsQueued  uint64
	Halvings       uint64
}

// New constructs a PMP from the configuration; it panics on an invalid
// configuration (programming error at the call site).
func New(cfg Config) *PMP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fw := sms.New(cfg.smsConfig())
	region := fw.Region()
	n := cfg.PatternLen()

	p := &PMP{
		cfg:    cfg,
		region: region,
		fw:     fw,
		ext:    newExtractor(cfg),
		pb:     newPrefetchBuffer(cfg.PBEntries, region),
		// crossRegion set below once the buffer exists.
		optLevels: make([]prefetch.Level, n),
		final:     make([]prefetch.Level, n),
	}

	p.pb.crossRegion = cfg.CrossRegion
	switch cfg.Feature {
	case DualTables:
		p.opt = mem.NewPackedCounterTable(1<<cfg.TriggerBits, n, cfg.OPTCounterBits)
		p.ppt = mem.NewPackedCounterTable(1<<cfg.PCBits, cfg.PPTLen(), cfg.PPTCounterBits)
		p.pptLevels = make([]prefetch.Level, cfg.PPTLen())
	case OPTOnly:
		p.opt = mem.NewPackedCounterTable(1<<cfg.TriggerBits, n, cfg.OPTCounterBits)
	case PPTOnly:
		// Sized like the OPT (§V-E3), indexed by hashed PC, full length.
		p.ppt = mem.NewPackedCounterTable(1<<cfg.TriggerBits, n, cfg.OPTCounterBits)
		p.pptLevels = make([]prefetch.Level, n)
	case Combined:
		p.opt = mem.NewPackedCounterTable(1<<(cfg.TriggerBits+cfg.PCBits), n, cfg.OPTCounterBits)
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *PMP) Name() string { return "pmp" }

// Config returns the active configuration.
func (p *PMP) Config() Config { return p.cfg }

// Stats returns internal activity counters.
func (p *PMP) Stats() Stats { return p.stats }

// triggerIndex derives the OPT index from the trigger access's byte
// address: the top TriggerBits bits of the in-region byte offset. For
// the default 6-bit width over 4KB regions this is exactly the line
// offset; wider widths (Table X) append sub-line address bits.
func (p *PMP) triggerIndex(addr mem.Addr) int {
	inRegion := uint64(addr) & uint64(p.cfg.RegionBytes-1)
	return int(inRegion >> uint(p.region.Shift()-p.cfg.TriggerBits))
}

func (p *PMP) pcIndex(pc uint64) int {
	return int(mem.HashPC(pc, p.cfg.PCBits))
}

// Train implements prefetch.Prefetcher.
func (p *PMP) Train(a prefetch.Access) {
	trig, isTrigger, closed := p.fw.Observe(a.PC, a.Addr)
	for i := range closed {
		p.merge(closed[i])
	}
	if isTrigger {
		p.predict(trig)
		return
	}
	// Re-access to a buffered region resumes its draining (paper §IV-B:
	// "when any load with the address of the same region reappears ...
	// the process continues").
	if !p.cfg.NoResume {
		p.pb.Touch(p.region.ID(a.Addr))
	}
}

// OnEvict implements prefetch.Prefetcher.
func (p *PMP) OnEvict(line mem.Addr) {
	if pat, ok := p.fw.OnEvict(line); ok {
		p.merge(pat)
	}
}

// OnFill implements prefetch.Prefetcher. PMP does not learn from
// prefetch outcomes.
func (p *PMP) OnFill(mem.Addr, prefetch.Level, bool) {}

// merge folds a completed pattern into the pattern tables.
func (p *PMP) merge(pat sms.Pattern) {
	p.stats.PatternsMerged++
	anchored := pat.Anchored()
	switch p.cfg.Feature {
	case DualTables:
		p.mergeInto(p.opt, p.triggerIndex(pat.TriggerAddr), anchored)
		p.mergeInto(p.ppt, p.pcIndex(pat.PC), anchored.Fold(p.cfg.MonitoringRange))
	case OPTOnly:
		p.mergeInto(p.opt, p.triggerIndex(pat.TriggerAddr), anchored)
	case PPTOnly:
		p.mergeInto(p.ppt, int(mem.HashPC(pat.PC, p.cfg.TriggerBits)), anchored)
	case Combined:
		idx := p.pcIndex(pat.PC)<<p.cfg.TriggerBits | p.triggerIndex(pat.TriggerAddr)
		p.mergeInto(p.opt, idx, anchored)
	}
}

// mergeInto accumulates a pattern into a table row, honouring the
// halving ablation.
//
//pmp:hotpath
func (p *PMP) mergeInto(t *mem.PackedCounterTable, row int, pattern mem.BitVector) {
	if p.cfg.NoHalving {
		t.MergeRowNoHalve(row, pattern)
		return
	}
	if t.MergeRow(row, pattern) {
		p.stats.Halvings++
	}
}

// predict runs extraction and arbitration for a trigger access and
// stores the final pattern in the prefetch buffer.
func (p *PMP) predict(trig sms.Trigger) {
	p.stats.Predictions++
	switch p.cfg.Feature {
	case DualTables:
		p.ext.ExtractRow(p.opt, p.triggerIndex(trig.Addr), p.optLevels)
		p.ext.ExtractRow(p.ppt, p.pcIndex(trig.PC), p.pptLevels)
		p.arbitrate()
	case OPTOnly:
		p.ext.ExtractRow(p.opt, p.triggerIndex(trig.Addr), p.optLevels)
		copy(p.final, p.optLevels)
	case PPTOnly:
		p.ext.ExtractRow(p.ppt, int(mem.HashPC(trig.PC, p.cfg.TriggerBits)), p.pptLevels)
		copy(p.final, p.pptLevels)
	case Combined:
		idx := p.pcIndex(trig.PC)<<p.cfg.TriggerBits | p.triggerIndex(trig.Addr)
		p.ext.ExtractRow(p.opt, idx, p.optLevels)
		copy(p.final, p.optLevels)
	}
	p.capLowLevel()
	queued := 0
	for k := 1; k < len(p.final); k++ {
		if p.final[k] != prefetch.LevelNone {
			queued++
		}
	}
	if queued == 0 {
		return
	}
	p.stats.TargetsQueued += uint64(queued)
	p.pb.Insert(trig.RegionID, trig.Offset, p.final)
}

// arbitrate combines the OPT and PPT candidate patterns into p.final
// using the paper's four rules (Fig 6e):
//
//  1. L1D only when both tables predict L1D;
//  2. if both predict but either says L2C, prefetch to L2C;
//  3. if the PPT is silent, downgrade the OPT's level;
//  4. if the OPT is silent, do not prefetch.
func (p *PMP) arbitrate() {
	m := p.cfg.MonitoringRange
	for k := range p.final {
		o := p.optLevels[k]
		if k == 0 || o == prefetch.LevelNone {
			p.final[k] = prefetch.LevelNone // rule 4
			continue
		}
		pp := p.pptLevels[k/m]
		switch {
		case pp == prefetch.LevelNone:
			p.final[k] = o.Downgrade() // rule 3
		case o == prefetch.LevelL1 && pp == prefetch.LevelL1:
			p.final[k] = prefetch.LevelL1 // rule 1
		default:
			p.final[k] = prefetch.LevelL2 // rule 2
		}
	}
}

// capLowLevel enforces the PMP-Limit low-level prefetch degree: at most
// LowLevelDegree non-L1D targets survive, nearest-first.
func (p *PMP) capLowLevel() {
	if p.cfg.LowLevelDegree <= 0 {
		return
	}
	kept := 0
	for _, k := range p.pb.order {
		l := p.final[k]
		if l == prefetch.LevelNone || l == prefetch.LevelL1 {
			continue
		}
		if kept < p.cfg.LowLevelDegree {
			kept++
			continue
		}
		p.final[k] = prefetch.LevelNone
	}
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *PMP) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.pb.DrainInto(dst, max)
}

// Requeue implements prefetch.Requeuer: an unadmitted request returns
// to the prefetch buffer and is retried when the region is re-accessed.
func (p *PMP) Requeue(r prefetch.Request) {
	p.pb.Requeue(p.region.ID(r.Addr), p.region.Offset(r.Addr))
}

// StorageBits implements prefetch.Prefetcher.
func (p *PMP) StorageBits() int { return p.cfg.Storage().TotalBits }
