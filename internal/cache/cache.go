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
	"math/bits"

	"pmp/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name    string // display name ("L1D", "L2C", "LLC")
	Sets    int    // number of sets (power of two)
	Ways    int    // associativity, at most 127
	Latency uint64 // access latency in core cycles
	MSHRs   int    // miss status holding registers
	PQSize  int    // prefetch queue entries
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("cache %s: ways must be in 1..%d, got %d", c.Name, maxWays, c.Ways)
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
//
// Each line occupies one 16-byte way: its line address, with the
// prefetched and used flags in the address's always-zero low bits, and
// the cycle its fill completes. Next to the ways, every set keeps a
// summary of ceil(Ways/8) fingerprint words followed by as many rank
// words, one byte lane per way, so the summary of a set of up to 32
// ways fits one host cache line:
//
//   - A fingerprint lane holds a 7-bit hash of the way's line with the
//     top bit set, or 0 when the way is empty. A probe compares the
//     set's fingerprint words against the wanted byte eight lanes at a
//     time and compares a line address only where a lane matches.
//   - A rank lane holds the way's LRU rank: ranks are a permutation of
//     0..Ways-1 per set, 0 the most recently used. A hit or a fill
//     moves its way to rank 0 and shifts every rank below the old one
//     up by one. Only those two events reorder ranks, so among valid
//     ways the order is last-touch order, and the victim of a full set
//     is the way of rank Ways-1.
//
// Lanes past the last way hold padFP and padRank, which match no
// fingerprint, no empty way and no rank.
type Cache struct {
	cfg     Config
	ways    []way    // Sets*Ways, row-major
	summary []uint64 // per set: words fingerprint words, then words rank words
	words   int      // ceil(Ways/8)
	setMask uint64
	stats   Stats
	mshr    mshrFile // outstanding misses (fixed capacity, see mshr.go)

	// PrefetchTrace, when non-nil, receives every lifecycle event of a
	// prefetched line: its fill, its first demand use (useful) and its
	// untouched death (useless). Feedback-driven prefetchers learn from
	// the last two, and lifecycle tracing follows all three.
	PrefetchTrace func(ev PrefetchEvent)
}

// way is one cache line's state. line is line-aligned, so its low
// mem.LineShift bits are free for the flags below; the fingerprint
// lane, not the way, records whether the way is valid.
type way struct {
	line  mem.Addr // line address | wayPrefetched | wayUsed
	ready uint64   // cycle the fill completes
}

const (
	wayPrefetched mem.Addr = 1 << iota // filled by a prefetch
	wayUsed                            // demand-touched since fill
	wayFlags      = wayPrefetched | wayUsed
)

// Byte-lane constants for the summary words.
const (
	lanes01 = 0x0101010101010101
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080

	padFP   = 0x01 // fingerprint lane past the last way: never 0, top bit clear
	padRank = 0x7f // rank lane past the last way: above every rank (Ways <= maxWays)
)

// maxWays is the associativity limit of 8-bit rank lanes: ranks run to
// Ways-1 and must stay below padRank.
const maxWays = padRank

// New constructs a cache; it panics on invalid configuration (a
// programming error in the caller, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	words := (cfg.Ways + 7) / 8
	c := &Cache{
		cfg:     cfg,
		ways:    make([]way, cfg.Sets*cfg.Ways),
		summary: make([]uint64, cfg.Sets*2*words),
		words:   words,
		setMask: uint64(cfg.Sets - 1),
		mshr:    newMSHRFile(cfg.MSHRs),
	}
	// Every set starts empty, its ways ranked in index order; only the
	// last word of each half has padding lanes.
	for k := 0; k < words; k++ {
		var fp, rank uint64
		for j := 7; j >= 0; j-- {
			fp, rank = fp<<8, rank<<8
			if w := k*8 + j; w < cfg.Ways {
				rank |= uint64(w)
			} else {
				fp, rank = fp|padFP, rank|padRank
			}
		}
		for s := 0; s < cfg.Sets; s++ {
			c.summary[2*s*words+k] = fp
			c.summary[(2*s+1)*words+k] = rank
		}
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// fingerprint hashes a line to its 7-bit fingerprint (the top bits of
// a Fibonacci hash) with the top bit set, so it never equals an empty
// lane (0) or padFP.
//
//pmp:hotpath
func fingerprint(line mem.Addr) uint64 {
	return uint64(line)*0x9E3779B97F4A7C15>>57 | 0x80
}

// zeroLanes returns 0x80 in every byte lane of x that is zero and 0 in
// every other lane. No lane carries into its neighbour, so the result
// is exact.
//
//pmp:hotpath
func zeroLanes(x uint64) uint64 {
	return ^((x&lanes7f + lanes7f) | x) & lanes80
}

// lane returns the index of the lowest lane flagged in a zeroLanes mask.
//
//pmp:hotpath
func lane(mask uint64) int { return bits.TrailingZeros64(mask) >> 3 }

// setOf returns the set index of a line-aligned address.
//
//pmp:hotpath
func (c *Cache) setOf(a mem.Addr) int { return int(a.LineID() & c.setMask) }

// find returns the index in c.ways of the way holding line a (already
// line-aligned) in set, or -1: a byte match of a's fingerprint over the
// set's fingerprint words, then one address compare per matching lane.
//
//pmp:hotpath
func (c *Cache) find(set int, a mem.Addr) int {
	want := fingerprint(a) * lanes01
	fps := c.summary[2*set*c.words:][:c.words]
	for k, fp := range fps {
		for m := zeroLanes(fp ^ want); m != 0; m &= m - 1 {
			i := set*c.cfg.Ways + k*8 + lane(m)
			if c.ways[i].line&^wayFlags == a {
				return i
			}
		}
	}
	return -1
}

// touch makes way w of set the most recently used: every rank below
// w's rises by one, word by word, and w's becomes 0.
//
//pmp:hotpath
func (c *Cache) touch(set, w int) {
	ranks := c.summary[(2*set+1)*c.words:][:c.words]
	shift := uint(w&7) * 8
	r := ranks[w>>3] >> shift & 0xff
	// Per lane, 0x7f+r-rank stays in 0..0xfd without borrowing from the
	// next lane, and has its top bit set exactly when rank < r.
	bcast := (0x7f + r) * lanes01
	for k, x := range ranks {
		ranks[k] = x + (bcast-x)&lanes80>>7
	}
	ranks[w>>3] &^= 0xff << shift
}

// victim returns the way of set that a fill replaces: the lowest empty
// way, else the least recently used (rank Ways-1).
//
//pmp:hotpath
func (c *Cache) victim(set int) int {
	sum := c.summary[2*set*c.words:][:2*c.words]
	for k, fp := range sum[:c.words] {
		if m := zeroLanes(fp); m != 0 {
			return k*8 + lane(m)
		}
	}
	oldest := uint64(c.cfg.Ways-1) * lanes01
	for k, rank := range sum[c.words:] {
		if m := zeroLanes(rank ^ oldest); m != 0 {
			return k*8 + lane(m)
		}
	}
	panic("cache: set ranks are not a permutation")
}

// setFP stores fingerprint fp (0 for empty) in way w's lane of set.
//
//pmp:hotpath
func (c *Cache) setFP(set, w int, fp uint64) {
	shift := uint(w&7) * 8
	p := &c.summary[2*set*c.words+w>>3]
	*p = *p&^(0xff<<shift) | fp<<shift
}

// Lookup probes for a line at the given cycle.
//
// On a hit it returns (true, readyCycle): the cycle at which the data is
// available (max of now+latency and the line's fill-completion time — a
// hit under a still-in-flight fill pays the residual). The line becomes
// the set's most recently used and, for demand lookups,
// prefetch-usefulness accounting runs.
//
// On a miss it returns (false, 0).
//
//pmp:hotpath
func (c *Cache) Lookup(a mem.Addr, now uint64, demand bool) (bool, uint64) {
	a = a.Line()
	if demand {
		c.stats.DemandAccesses++
	}
	set := c.setOf(a)
	i := c.find(set, a)
	if i < 0 {
		if demand {
			c.stats.DemandMisses++
		}
		return false, 0
	}
	c.touch(set, i-set*c.cfg.Ways)
	l := &c.ways[i]
	unused := l.line&wayFlags == wayPrefetched // prefetched, not yet demanded
	ready := now + c.cfg.Latency
	if l.ready > ready {
		ready = l.ready
		if demand && unused {
			c.stats.LatePrefetch++
		}
	}
	if demand {
		if unused {
			c.stats.UsefulPrefetch++
			l.line |= wayUsed
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

// Contains reports whether the line is present, without touching LRU or
// statistics (used by back-invalidation and tests).
//
//pmp:hotpath
func (c *Cache) Contains(a mem.Addr) bool {
	a = a.Line()
	return c.find(c.setOf(a), a) >= 0
}

// Fill inserts a line completing at readyCycle. prefetched marks
// prefetch fills for pollution accounting. It returns the eviction the
// fill caused, if any. Filling a line that is already present only
// lowers its ready time (fills can race when a prefetch and a demand
// miss overlap); it does not change the line's LRU position.
//
//pmp:hotpath
func (c *Cache) Fill(a mem.Addr, readyCycle uint64, prefetched bool) Eviction {
	a = a.Line()
	if prefetched {
		c.stats.PrefetchFills++
	}
	set := c.setOf(a)
	if i := c.find(set, a); i >= 0 {
		c.ways[i].ready = min(c.ways[i].ready, readyCycle)
		return Eviction{}
	}
	w := c.victim(set)
	v := &c.ways[set*c.cfg.Ways+w]
	ev := Eviction{}
	if c.summary[2*set*c.words+w>>3]>>(uint(w&7)*8)&0xff != 0 { // nonzero fingerprint: the victim holds a line
		old := v.line &^ wayFlags
		ev = Eviction{Kind: EvictClean, Line: old, Prefetched: v.line&wayPrefetched != 0, Used: v.line&wayUsed != 0}
		if ev.Prefetched && !ev.Used {
			c.stats.UselessPrefetx++
			if c.PrefetchTrace != nil {
				// The displacing fill's completion is the closest clock
				// this path has to "now".
				c.PrefetchTrace(PrefetchEvent{Kind: PrefetchDead, Line: old, Cycle: readyCycle})
			}
		}
	}
	*v = way{line: a, ready: readyCycle}
	if prefetched {
		v.line |= wayPrefetched
	}
	c.setFP(set, w, fingerprint(a))
	c.touch(set, w)
	if prefetched && c.PrefetchTrace != nil {
		c.PrefetchTrace(PrefetchEvent{Kind: PrefetchFilled, Line: a, Cycle: readyCycle})
	}
	return ev
}

// Invalidate removes a line (inclusive-hierarchy back-invalidation). It
// reports whether the line was present; an untouched prefetched line
// counts as a useless prefetch. The emptied way keeps its rank.
//
//pmp:hotpath
func (c *Cache) Invalidate(a mem.Addr) bool {
	a = a.Line()
	set := c.setOf(a)
	i := c.find(set, a)
	if i < 0 {
		return false
	}
	if c.ways[i].line&wayFlags == wayPrefetched {
		c.stats.UselessPrefetx++
		if c.PrefetchTrace != nil {
			c.PrefetchTrace(PrefetchEvent{Kind: PrefetchDead, Line: a})
		}
	}
	c.setFP(set, i-set*c.cfg.Ways, 0)
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
