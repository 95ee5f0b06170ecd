package core

import (
	"fmt"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sms"
)

// DesignB is the alternative design the paper compares against in
// §V-E1: instead of merging, only *identical* patterns are coalesced —
// each stored pattern is a bit vector with a repetition counter, kept in
// a set-associative cache indexed by trigger offset. On a trigger
// access, the matching set is searched for the pattern with the highest
// counter; if that counter clears the ANE-style threshold, all its
// valid offsets are replayed as prefetch targets.
type DesignB struct {
	cfg    DesignBConfig
	name   string // computed once at construction; Name() must not format per call
	region mem.Region
	fw     *sms.Framework
	pb     *prefetchBuffer
	sets   [][]designBEntry
	stamp  uint64
	final  []prefetch.Level
}

// DesignBConfig sizes Design B.
type DesignBConfig struct {
	RegionBytes    int
	Ways           int    // associativity of the pattern cache (Table VIII: 8..512)
	CounterBits    int    // repetition counter width
	L1Threshold    uint32 // counter needed to replay to L1D
	L2Threshold    uint32 // counter needed to replay to L2C
	PBEntries      int
	FTSets, FTWays int
	ATSets, ATWays int
}

// DefaultDesignBConfig mirrors PMP's capture geometry with an 8-way
// pattern cache.
func DefaultDesignBConfig() DesignBConfig {
	return DesignBConfig{
		RegionBytes: mem.DefaultRegion,
		Ways:        8,
		CounterBits: 5,
		L1Threshold: 16,
		L2Threshold: 5,
		PBEntries:   16,
		FTSets:      8, FTWays: 8,
		ATSets: 2, ATWays: 16,
	}
}

// Validate reports a descriptive error for malformed configurations.
func (c DesignBConfig) Validate() error {
	if c.Ways < 1 {
		return fmt.Errorf("designb: ways must be >= 1, got %d", c.Ways)
	}
	if c.RegionBytes < 2*mem.LineBytes || c.RegionBytes > mem.PageBytes || c.RegionBytes&(c.RegionBytes-1) != 0 {
		return fmt.Errorf("designb: bad region size %d", c.RegionBytes)
	}
	if c.CounterBits < 1 || c.CounterBits > 16 {
		return fmt.Errorf("designb: counter bits must be in [1, 16], got %d", c.CounterBits)
	}
	if c.PBEntries < 1 {
		return fmt.Errorf("designb: prefetch buffer needs at least one entry, got %d", c.PBEntries)
	}
	if c.L2Threshold > c.L1Threshold {
		return fmt.Errorf("designb: L2 threshold above L1 threshold")
	}
	return c.smsConfig().Validate()
}

// smsConfig is the capture geometry NewDesignB builds; the region size
// must already be valid.
func (c DesignBConfig) smsConfig() sms.Config {
	return sms.Config{
		Region: mem.NewRegion(c.RegionBytes),
		FTSets: c.FTSets, FTWays: c.FTWays,
		ATSets: c.ATSets, ATWays: c.ATWays,
	}
}

type designBEntry struct {
	valid   bool
	pattern mem.BitVector // anchored
	count   uint32
	lru     uint64
}

// NewDesignB constructs a Design B prefetcher; it panics on invalid
// configuration.
func NewDesignB(cfg DesignBConfig) *DesignB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fw := sms.New(cfg.smsConfig())
	region := fw.Region()
	n := region.Lines()
	sets := make([][]designBEntry, n) // one set per trigger offset
	for i := range sets {
		sets[i] = make([]designBEntry, cfg.Ways)
	}
	return &DesignB{
		cfg:    cfg,
		name:   fmt.Sprintf("designb-%dw", cfg.Ways),
		region: region,
		fw:     fw,
		pb:     newPrefetchBuffer(cfg.PBEntries, region),
		sets:   sets,
		final:  make([]prefetch.Level, n),
	}
}

// Name implements prefetch.Prefetcher.
func (d *DesignB) Name() string { return d.name }

// Train implements prefetch.Prefetcher.
func (d *DesignB) Train(a prefetch.Access) {
	trig, isTrigger, closed := d.fw.Observe(a.PC, a.Addr)
	for i := range closed {
		d.insert(closed[i])
	}
	if isTrigger {
		d.predict(trig)
		return
	}
	d.pb.Touch(d.region.ID(a.Addr))
}

// OnEvict implements prefetch.Prefetcher.
func (d *DesignB) OnEvict(line mem.Addr) {
	if pat, ok := d.fw.OnEvict(line); ok {
		d.insert(pat)
	}
}

// OnFill implements prefetch.Prefetcher.
func (d *DesignB) OnFill(mem.Addr, prefetch.Level, bool) {}

func (d *DesignB) insert(pat sms.Pattern) {
	d.stamp++
	anchored := pat.Anchored()
	set := d.sets[pat.Trigger]
	maxCount := uint32(1)<<uint(d.cfg.CounterBits) - 1
	victim := 0
	oldest := ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.pattern == anchored {
			if e.count < maxCount {
				e.count++
			}
			e.lru = d.stamp
			return
		}
		if !e.valid {
			victim = i // a free way's lru is 0, so no valid way displaces it
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	set[victim] = designBEntry{valid: true, pattern: anchored, count: 1, lru: d.stamp}
}

func (d *DesignB) predict(trig sms.Trigger) {
	set := d.sets[trig.Offset]
	var best *designBEntry
	for i := range set {
		e := &set[i]
		if e.valid && (best == nil || e.count > best.count) {
			best = e
		}
	}
	if best == nil {
		return
	}
	var level prefetch.Level
	switch {
	case best.count >= d.cfg.L1Threshold:
		level = prefetch.LevelL1
	case best.count >= d.cfg.L2Threshold:
		level = prefetch.LevelL2
	default:
		return
	}
	d.stamp++
	best.lru = d.stamp
	for k := range d.final {
		d.final[k] = prefetch.LevelNone
		if best.pattern.Test(k) {
			d.final[k] = level
		}
	}
	d.pb.Insert(trig.RegionID, trig.Offset, d.final)
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (d *DesignB) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return d.pb.DrainInto(dst, max)
}

// Requeue implements prefetch.Requeuer.
func (d *DesignB) Requeue(r prefetch.Request) {
	d.pb.Requeue(d.region.ID(r.Addr), d.region.Offset(r.Addr))
}

// StorageBits implements prefetch.Prefetcher: the pattern cache (bit
// vector + counter + LRU per entry) plus the capture framework and
// prefetch buffer.
func (d *DesignB) StorageBits() int {
	n := d.region.Lines()
	entry := n + d.cfg.CounterBits + mem.CeilLog2(d.cfg.Ways)
	return n*d.cfg.Ways*entry + d.fw.StorageBits() + pbStorageBits(d.cfg.PBEntries, d.region)
}
