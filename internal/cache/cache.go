// Package cache implements the set-associative caches, MSHRs and
// prefetch queues of the simulated memory hierarchy.
//
// The model is functional-with-timestamps rather than cycle-stepped:
// lookups and fills happen immediately in program order, but every line
// carries the cycle at which its fill completes, so a demand access that
// arrives before an in-flight (e.g. prefetched) line is ready pays the
// residual latency. This keeps simulation fast while preserving the
// timing effects prefetching is about (late prefetches, MSHR pressure,
// pollution).
package cache

import (
	"fmt"

	"pmp/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name    string // display name ("L1D", "L2C", "LLC")
	Sets    int    // number of sets (power of two)
	Ways    int    // associativity
	Latency uint64 // access latency in core cycles
	MSHRs   int    // miss status holding registers
	PQSize  int    // prefetch queue entries
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: MSHRs must be positive, got %d", c.Name, c.MSHRs)
	}
	if c.PQSize < 0 {
		return fmt.Errorf("cache %s: PQ size must be >= 0, got %d", c.Name, c.PQSize)
	}
	return nil
}

// SizeBytes returns the data capacity of the configuration.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * mem.LineBytes }

// lineMeta is the per-line state other than the tag. Tags live in
// their own parallel array (structure-of-arrays): an associative probe
// then scans Ways*8 contiguous bytes — a single cache line for
// 8-way sets — instead of striding through interleaved metadata, and
// the valid bit is folded into the tag as a sentinel so the tag-match
// loop is one compare per way.
type lineMeta struct {
	lru        uint64 // last-touch stamp (LRU replacement)
	ready      uint64 // cycle the fill completes
	prefetched bool   // filled by a prefetch
	used       bool   // demand-touched since fill
}

// invalidTag marks an empty way. Real tags are line-aligned (low
// mem.LineShift bits zero), so this value can never collide.
const invalidTag mem.Addr = 1

// Stats accumulates per-level counters from construction on; the
// simulator zeroes them with ResetStats at the warm-up boundary.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64

	PrefetchFills  uint64 // prefetch fills inserted at this level
	UsefulPrefetch uint64 // prefetched lines later demand-hit
	UselessPrefetx uint64 // prefetched lines evicted untouched
	LatePrefetch   uint64 // demand hit a prefetched line still in flight
}

// Accuracy returns useful/(useful+useless) prefetch accuracy, or 0 when
// no prefetch outcome has been observed.
func (s Stats) Accuracy() float64 {
	tot := s.UsefulPrefetch + s.UselessPrefetx
	if tot == 0 {
		return 0
	}
	return float64(s.UsefulPrefetch) / float64(tot)
}

// EvictKind tells the hierarchy what was displaced by a fill.
type EvictKind uint8

const (
	// EvictNone means the fill landed in an invalid way.
	EvictNone EvictKind = iota
	// EvictClean means a valid line was displaced.
	EvictClean
)

// Eviction describes a displaced line.
type Eviction struct {
	Kind       EvictKind
	Line       mem.Addr
	Prefetched bool // was a prefetch
	Used       bool // was demand-touched since fill
}

// PrefetchEventKind identifies a step in a prefetched line's lifecycle.
type PrefetchEventKind uint8

const (
	// PrefetchFilled: a prefetch fill was inserted; Cycle is the cycle
	// the fill completes.
	PrefetchFilled PrefetchEventKind = iota
	// PrefetchUsed: first demand hit on a prefetched line; Cycle is the
	// demand cycle, FillCycle the line's fill-completion cycle, and Late
	// mirrors the Stats.LatePrefetch rule (the fill completes after a
	// plain hit would have returned).
	PrefetchUsed
	// PrefetchDead: a prefetched line left the cache untouched (evicted
	// or back-invalidated); Cycle approximates when (0 for
	// invalidations, which carry no clock).
	PrefetchDead
)

// String implements fmt.Stringer.
func (k PrefetchEventKind) String() string {
	switch k {
	case PrefetchFilled:
		return "filled"
	case PrefetchUsed:
		return "used"
	case PrefetchDead:
		return "dead"
	default:
		return "invalid"
	}
}

// PrefetchEvent is one per-request lifecycle observation for a
// prefetched line at this cache level. The simulator's lifecycle
// tracker correlates these with issue records to classify every
// prefetch as timely, late or useless, and feedback-driven prefetchers
// learn from the uses and deaths.
type PrefetchEvent struct {
	Kind      PrefetchEventKind
	Line      mem.Addr
	Cycle     uint64 // when the event happened (see kind docs)
	FillCycle uint64 // fill-completion cycle (PrefetchUsed only)
	Late      bool   // PrefetchUsed: fill still in flight at use
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg     Config
	tags    []mem.Addr // Sets*Ways, row-major; invalidTag when empty
	meta    []lineMeta // parallel to tags
	setMask uint64
	stamp   uint64
	stats   Stats
	mshr    mshrFile // outstanding misses (fixed capacity, see mshr.go)

	// PrefetchTrace, when non-nil, receives every lifecycle event of a
	// prefetched line: its fill, its first demand use (useful) and its
	// untouched death (useless). Feedback-driven prefetchers learn from
	// the last two, and lifecycle tracing follows all three.
	PrefetchTrace func(ev PrefetchEvent)
}

// New constructs a cache; it panics on invalid configuration (a
// programming error in the caller, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:     cfg,
		tags:    make([]mem.Addr, cfg.Sets*cfg.Ways),
		meta:    make([]lineMeta, cfg.Sets*cfg.Ways),
		setMask: uint64(cfg.Sets - 1),
		mshr:    newMSHRFile(cfg.MSHRs),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setBase returns the index of the set's first way in the parallel
// tag/meta arrays.
//
//pmp:hotpath
func (c *Cache) setBase(a mem.Addr) int {
	return int(a.LineID()&c.setMask) * c.cfg.Ways
}

// findWay returns the array index of the way holding line a (already
// line-aligned), or -1. One tag compare per way over contiguous tags.
//
//pmp:hotpath
func (c *Cache) findWay(a mem.Addr) int {
	base := c.setBase(a)
	for _, t := range c.tags[base : base+c.cfg.Ways] {
		if t == a {
			return base
		}
		base++
	}
	return -1
}

// Lookup probes for a line at the given cycle.
//
// On a hit it returns (true, readyCycle): the cycle at which the data is
// available (max of now+latency and the line's fill-completion time — a
// hit under a still-in-flight fill pays the residual). The LRU stamp is
// updated and, for demand lookups, prefetch-usefulness accounting runs.
//
// On a miss it returns (false, 0).
//
//pmp:hotpath
func (c *Cache) Lookup(a mem.Addr, now uint64, demand bool) (bool, uint64) {
	a = a.Line()
	c.stamp++
	if demand {
		c.stats.DemandAccesses++
	}
	if i := c.findWay(a); i >= 0 {
		l := &c.meta[i]
		l.lru = c.stamp
		ready := now + c.cfg.Latency
		if l.ready > ready {
			ready = l.ready
			if demand && l.prefetched && !l.used {
				c.stats.LatePrefetch++
			}
		}
		if demand {
			if l.prefetched && !l.used {
				c.stats.UsefulPrefetch++
				l.used = true
				if c.PrefetchTrace != nil {
					c.PrefetchTrace(PrefetchEvent{
						Kind: PrefetchUsed, Line: a, Cycle: now,
						FillCycle: l.ready, Late: l.ready > now+c.cfg.Latency,
					})
				}
			}
			c.stats.DemandHits++
		}
		return true, ready
	}
	if demand {
		c.stats.DemandMisses++
	}
	return false, 0
}

// Contains reports whether the line is present, without touching LRU or
// statistics (used by back-invalidation and tests).
//
//pmp:hotpath
func (c *Cache) Contains(a mem.Addr) bool {
	return c.findWay(a.Line()) >= 0
}

// Fill inserts a line completing at readyCycle. prefetched marks
// prefetch fills for pollution accounting. It returns the eviction the
// fill caused, if any. Filling a line that is already present only
// refreshes its ready time (fills can race when a prefetch and a demand
// miss overlap).
//
//pmp:hotpath
func (c *Cache) Fill(a mem.Addr, readyCycle uint64, prefetched bool) Eviction {
	a = a.Line()
	c.stamp++
	if prefetched {
		c.stats.PrefetchFills++
	}
	if i := c.findWay(a); i >= 0 {
		if readyCycle < c.meta[i].ready {
			c.meta[i].ready = readyCycle
		}
		return Eviction{}
	}
	victim := c.victimIn(c.setBase(a))
	ev := Eviction{}
	v := &c.meta[victim]
	if vt := c.tags[victim]; vt != invalidTag {
		ev = Eviction{Kind: EvictClean, Line: vt, Prefetched: v.prefetched, Used: v.used}
		if v.prefetched && !v.used {
			c.stats.UselessPrefetx++
			if c.PrefetchTrace != nil {
				// The displacing fill's completion is the closest clock
				// this path has to "now".
				c.PrefetchTrace(PrefetchEvent{Kind: PrefetchDead, Line: vt, Cycle: readyCycle})
			}
		}
	}
	c.tags[victim] = a
	*v = lineMeta{lru: c.stamp, ready: readyCycle, prefetched: prefetched}
	if prefetched && c.PrefetchTrace != nil {
		c.PrefetchTrace(PrefetchEvent{Kind: PrefetchFilled, Line: a, Cycle: readyCycle})
	}
	return ev
}

// victimIn selects the replacement victim (as an array index) for the
// set starting at base: an empty way, else the least recently used.
//
//pmp:hotpath
func (c *Cache) victimIn(base int) int {
	end := base + c.cfg.Ways
	for i := base; i < end; i++ {
		if c.tags[i] == invalidTag {
			return i
		}
	}
	victim := base
	oldest := ^uint64(0)
	for i := base; i < end; i++ {
		if c.meta[i].lru < oldest {
			oldest = c.meta[i].lru
			victim = i
		}
	}
	return victim
}

// Invalidate removes a line (inclusive-hierarchy back-invalidation). It
// reports whether the line was present; an untouched prefetched line
// counts as a useless prefetch.
//
//pmp:hotpath
func (c *Cache) Invalidate(a mem.Addr) bool {
	a = a.Line()
	i := c.findWay(a)
	if i < 0 {
		return false
	}
	l := &c.meta[i]
	if l.prefetched && !l.used {
		c.stats.UselessPrefetx++
		if c.PrefetchTrace != nil {
			c.PrefetchTrace(PrefetchEvent{Kind: PrefetchDead, Line: a})
		}
	}
	c.tags[i] = invalidTag
	return true
}

// --- MSHR model ---
//
// Outstanding misses occupy MSHR entries until their completion cycle.
// A demand miss may always take the last entry; prefetches must leave at
// least one entry free (paper §IV-B: "at least one MSHR is remained for
// normal load/store requests"). Entries live in a fixed-capacity array
// (mshr.go) sized by Config.MSHRs.

// MSHRBusy returns the number of occupied MSHR entries at `now`.
func (c *Cache) MSHRBusy(now uint64) int { return c.mshr.prune(now) }

// InFlight reports whether a miss for the line is already outstanding
// and, if so, its completion cycle (requests merge onto it).
func (c *Cache) InFlight(a mem.Addr, now uint64) (uint64, bool) {
	return c.mshr.inFlight(a.Line(), now)
}

// ReserveMSHR allocates an MSHR entry completing at `done` for the line.
// Demand requests may use every entry; prefetches must leave one free.
// Reserving a line that already holds an entry updates its completion
// time without consuming a new slot (the demand path reserves a
// placeholder before the hierarchy walk computes the real latency).
// It reports whether the allocation succeeded.
func (c *Cache) ReserveMSHR(a mem.Addr, now, done uint64, demand bool) bool {
	limit := c.cfg.MSHRs
	if !demand {
		limit--
	}
	return c.mshr.reserve(a.Line(), now, done, limit)
}

// EarliestCompletion returns the soonest completion cycle among
// outstanding misses strictly after `now`, or false when none are in
// flight. The simulator uses it to model a demand request stalling on a
// full MSHR file.
func (c *Cache) EarliestCompletion(now uint64) (uint64, bool) {
	return c.mshr.earliest(now)
}
