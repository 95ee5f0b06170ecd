// Package sms implements the Spatial Memory Streaming pattern-capturing
// framework (Somogyi et al., ISCA'06) that PMP, Bingo and the pattern
// analysis tooling are built on (paper §II-B).
//
// Two set-associative tables track in-progress spatial patterns:
//
//   - The Filter Table (FT) records the first access (the trigger
//     access) to each memory region: PC, address, trigger offset.
//   - The Accumulation Table (AT) accumulates the access bit vector of
//     regions that have seen at least two distinct offsets.
//
// Accumulation for a region ends when a cached line of the region is
// evicted (reported via OnEvict) or when its AT entry is displaced; the
// completed pattern is then handed to the consumer.
package sms

import (
	"fmt"

	"pmp/internal/mem"
)

// Config sizes the framework. PMP's defaults (paper Table III) are an
// 8x8 FT and a 2x16 AT over 4KB regions.
type Config struct {
	Region mem.Region
	FTSets int
	FTWays int
	ATSets int
	ATWays int
}

// DefaultConfig returns the PMP paper's capture geometry.
func DefaultConfig() Config {
	return Config{
		Region: mem.NewRegion(mem.DefaultRegion),
		FTSets: 8, FTWays: 8,
		ATSets: 2, ATWays: 16,
	}
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.FTSets <= 0 || c.FTSets&(c.FTSets-1) != 0 {
		return fmt.Errorf("sms: FT sets must be a positive power of two, got %d", c.FTSets)
	}
	if c.ATSets <= 0 || c.ATSets&(c.ATSets-1) != 0 {
		return fmt.Errorf("sms: AT sets must be a positive power of two, got %d", c.ATSets)
	}
	if c.FTWays <= 0 || c.ATWays <= 0 {
		return fmt.Errorf("sms: ways must be positive (%d, %d)", c.FTWays, c.ATWays)
	}
	return nil
}

// Trigger describes the first access observed in a region.
type Trigger struct {
	RegionID uint64
	PC       uint64
	Offset   int      // trigger offset (line granularity) within the region
	Addr     mem.Addr // full byte address of the trigger access
}

// Pattern is a completed spatial pattern.
type Pattern struct {
	RegionID    uint64
	PC          uint64   // PC of the region's trigger access
	Trigger     int      // trigger offset (line granularity)
	TriggerAddr mem.Addr // full byte address of the trigger access
	Bits        mem.BitVector
}

// Anchored returns the pattern left-circular-shifted so the trigger
// offset is position 0 (the form PMP merges).
func (p Pattern) Anchored() mem.BitVector { return p.Bits.Anchor(p.Trigger) }

type ftEntry struct {
	valid   bool
	tag     uint64
	pc      uint64
	trigger int
	addr    mem.Addr // byte address of the trigger access
	lru     uint64
}

type atEntry struct {
	valid   bool
	tag     uint64
	pc      uint64
	trigger int
	addr    mem.Addr // byte address of the trigger access
	bits    mem.BitVector
	lru     uint64
}

// Framework is the FT+AT capture engine. Construct with New.
type Framework struct {
	cfg   Config
	ft    []ftEntry
	at    []atEntry
	stamp uint64
	// out is reused across Observe calls to avoid per-access allocation.
	// One access closes at most one pattern (the AT victim in insertAT),
	// so New reserves room for exactly one.
	out []Pattern
}

// New constructs a framework; it panics on invalid configuration.
func New(cfg Config) *Framework {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Region.Lines() == 0 {
		cfg.Region = mem.NewRegion(mem.DefaultRegion)
	}
	return &Framework{
		cfg: cfg,
		ft:  make([]ftEntry, cfg.FTSets*cfg.FTWays),
		at:  make([]atEntry, cfg.ATSets*cfg.ATWays),
		out: make([]Pattern, 0, 1),
	}
}

// Region returns the tracked region geometry.
func (f *Framework) Region() mem.Region { return f.cfg.Region }

func (f *Framework) ftSet(region uint64) []ftEntry {
	i := (region & uint64(f.cfg.FTSets-1)) * uint64(f.cfg.FTWays)
	return f.ft[i : i+uint64(f.cfg.FTWays)]
}

func (f *Framework) atSet(region uint64) []atEntry {
	i := (region & uint64(f.cfg.ATSets-1)) * uint64(f.cfg.ATWays)
	return f.at[i : i+uint64(f.cfg.ATWays)]
}

// Observe processes one demand access. It returns:
//
//   - trig, isTrigger: set when this access is the first in its region
//     (missed both tables) — the moment PMP runs its prediction;
//   - closed: patterns whose accumulation this access terminated (AT
//     displacement). The slice is reused by the next Observe call.
func (f *Framework) Observe(pc uint64, addr mem.Addr) (trig Trigger, isTrigger bool, closed []Pattern) {
	f.stamp++
	f.out = f.out[:0]
	region := f.cfg.Region.ID(addr)
	offset := f.cfg.Region.Offset(addr)

	// 1. Region already accumulating: extend the pattern.
	atSet := f.atSet(region)
	for i := range atSet {
		e := &atSet[i]
		if e.valid && e.tag == region {
			e.bits.Set(offset)
			e.lru = f.stamp
			return Trigger{}, false, nil
		}
	}

	// 2. Region in the filter table: promote on a second distinct offset.
	ftSet := f.ftSet(region)
	for i := range ftSet {
		e := &ftSet[i]
		if !e.valid || e.tag != region {
			continue
		}
		if e.trigger == offset {
			e.lru = f.stamp // same line touched again; still filtering
			return Trigger{}, false, nil
		}
		bits := mem.NewBitVector(f.cfg.Region.Lines())
		bits.Set(e.trigger)
		bits.Set(offset)
		f.insertAT(region, e.pc, e.trigger, e.addr, bits)
		e.valid = false
		return Trigger{}, false, f.out
	}

	// 3. Fresh region: allocate a filter entry; this is a trigger access.
	victim := 0
	oldest := ^uint64(0)
	for i := range ftSet {
		e := &ftSet[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	ftSet[victim] = ftEntry{valid: true, tag: region, pc: pc, trigger: offset, addr: addr, lru: f.stamp}
	return Trigger{RegionID: region, PC: pc, Offset: offset, Addr: addr}, true, f.out
}

// insertAT places a new accumulation entry, closing the LRU victim's
// pattern if one is displaced.
func (f *Framework) insertAT(region uint64, pc uint64, trigger int, addr mem.Addr, bits mem.BitVector) {
	set := f.atSet(region)
	victim := 0
	oldest := ^uint64(0)
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = i
			oldest = 0
			break
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	v := &set[victim]
	if v.valid {
		if len(f.out) == cap(f.out) {
			panic("sms: one access closed more than one pattern")
		}
		f.out = append(f.out, Pattern{RegionID: v.tag, PC: v.pc, Trigger: v.trigger, TriggerAddr: v.addr, Bits: v.bits})
	}
	*v = atEntry{valid: true, tag: region, pc: pc, trigger: trigger, addr: addr, bits: bits, lru: f.stamp}
}

// OnEvict closes accumulation for the region containing the evicted
// line, if it is accumulating (paper §II-B: "the accumulation process
// ... finishes when any cached data belonging to this region is
// evicted"). It returns the completed pattern, valid until the next
// Observe/OnEvict call.
func (f *Framework) OnEvict(line mem.Addr) (Pattern, bool) {
	region := f.cfg.Region.ID(line)
	set := f.atSet(region)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == region {
			p := Pattern{RegionID: e.tag, PC: e.pc, Trigger: e.trigger, TriggerAddr: e.addr, Bits: e.bits}
			e.valid = false
			return p, true
		}
	}
	// A region still in the FT has a single-access pattern; eviction
	// simply drops it (nothing useful to learn from one access).
	ftSet := f.ftSet(region)
	for i := range ftSet {
		e := &ftSet[i]
		if e.valid && e.tag == region {
			e.valid = false
			break
		}
	}
	return Pattern{}, false
}

// Flush closes every in-progress accumulation and returns the
// patterns (end-of-trace bookkeeping for analysis tools; hardware has
// no equivalent operation).
func (f *Framework) Flush() []Pattern {
	var out []Pattern
	for i := range f.at {
		e := &f.at[i]
		if e.valid {
			out = append(out, Pattern{
				RegionID: e.tag, PC: e.pc, Trigger: e.trigger,
				TriggerAddr: e.addr, Bits: e.bits,
			})
			e.valid = false
		}
	}
	for i := range f.ft {
		f.ft[i].valid = false
	}
	return out
}

// TableBits returns the hardware budget of the filter and accumulation
// tables following the paper's Table III accounting: with 48-bit
// addresses and 4KB regions, FT entries hold a region tag (36b minus
// set-index bits = 33b), a hashed PC (5b), the trigger offset and LRU
// state; AT entries add the bit vector.
func (c Config) TableBits() (ft, at int) {
	regionBits := 48 - c.Region.Shift()
	offBits := mem.CeilLog2(c.Region.Lines())
	ftTag := regionBits - mem.CeilLog2(c.FTSets)
	atTag := regionBits - mem.CeilLog2(c.ATSets)
	ftEntryBits := ftTag + 5 + offBits + mem.CeilLog2(c.FTWays)
	atEntryBits := atTag + 5 + c.Region.Lines() + offBits + mem.CeilLog2(c.ATWays)
	return c.FTSets * c.FTWays * ftEntryBits, c.ATSets * c.ATWays * atEntryBits
}

// StorageBits returns the framework's hardware budget: the bits of both
// its tables (Config.TableBits).
func (f *Framework) StorageBits() int {
	ft, at := f.cfg.TableBits()
	return ft + at
}
