package sim

import (
	"fmt"

	"pmp/internal/cache"
	"pmp/internal/cpu"
	"pmp/internal/dram"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/tlb"
	"pmp/internal/trace"
)

// level is one cache level of the hierarchy as seen by one core: the
// cache itself (core-private, or a pointer to the machine-shared
// instance), its timing, the per-core prefetch-queue tracker and the
// optional level-attached prefetcher.
type level struct {
	cache     *cache.Cache
	latency   uint64
	pqSize    int
	shared    bool
	inclusive bool
	pfLevel   prefetch.Level // prefetch.Level label for stats/feedback

	// pq bounds this core's short-term prefetch issue rate into the
	// level. An entry is occupied from issue until the cache accepts
	// the request (one access latency), so the PQ bounds the issue
	// rate while the MSHRs bound in-flight depth — ChampSim's
	// structure. Shared caches still have one PQ per core.
	pq pqTracker

	// attached, when non-nil, is a prefetcher attached at this level:
	// it trains on the demand accesses that reach the level and its
	// requests fill this level only — the placement the paper's §V-B
	// uses for "original Bingo at LLC", generalized to any depth.
	// attachBuf is its reused issue scratch buffer.
	attached  prefetch.Prefetcher
	attachBuf []prefetch.Request
}

// Core is one simulated core: a CPU window model, a TLB, the full view
// of the cache hierarchy (private levels owned, shared levels
// referenced) and the core's trained prefetcher.
type Core struct {
	m     *Machine
	index uint64 // interleaves DRAM channels across cores
	cpu   *cpu.Core
	dtlb  *tlb.TLB
	pf    prefetch.Prefetcher

	levels []level

	pfStats PrefetchIssueStats
	// statsOn is the core's measurement window, open from its warm-up
	// boundary: PF.Issued and lifecycle issue records count only
	// inside it.
	statsOn bool

	// lt, when non-nil, tracks every prefetch request from issue to
	// resolution (timely/late/useless/redundant). Nil keeps the hot
	// path free of tracing work.
	lt *lifecycleTracker

	// Dependency tracking: prevDone is the completion cycle of the
	// immediately preceding load; chainDone tracks completions per
	// (hashed) PC. Pointer chases serialize on their own chain while
	// independent walkers keep their memory-level parallelism.
	prevDone  uint64
	chainDone [64]uint64

	// issueBuf is the scratch buffer the primary issue path hands to
	// IssueInto, so a steady-state access allocates nothing.
	// Level-attached prefetchers drain through their own
	// level.attachBuf — separate because an attached drain can run
	// while a demand access is still between lookup and issue.
	issueBuf []prefetch.Request
}

// Machine is an N-core simulated machine over an N-level cache
// hierarchy. Private levels are instantiated per core; shared levels
// (the hierarchy's suffix, typically just the LLC) and the DRAM
// channels are instantiated once. Construct with NewMachineAt.
type Machine struct {
	cfg    Config
	specs  []LevelSpec
	shared []*cache.Cache // per hierarchy level; nil for private levels
	mem    *dram.DRAM
	cores  []*Core

	// replay re-runs a trace from the start when it ends before its
	// core's measurement window does (ChampSim's multi-programmed-mix
	// convention); single-trace runs leave it off so they end with
	// their trace. Set once by NewMachineAt.
	replay bool
}

// newMachine builds a machine with one core per prefetcher over the
// configured hierarchy, with no attached prefetchers and trace replay
// off; it panics on invalid configuration.
func newMachine(cfg Config, prefetchers []prefetch.Prefetcher) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(prefetchers) == 0 {
		panic("sim: machine needs at least one prefetcher")
	}
	specs := cfg.Resolved().Levels
	m := &Machine{
		cfg:    cfg,
		specs:  specs,
		shared: make([]*cache.Cache, len(specs)),
		mem:    dram.New(cfg.DRAM),
	}
	for j, sp := range specs {
		if sp.Shared {
			m.shared[j] = cache.New(sp.Cache)
		}
	}
	for i, pf := range prefetchers {
		c := &Core{
			m:      m,
			index:  uint64(i),
			cpu:    cpu.New(cfg.Core),
			dtlb:   tlb.New(cfg.TLB),
			pf:     pf,
			levels: make([]level, len(specs)),
		}
		for j, sp := range specs {
			cc := m.shared[j]
			if cc == nil {
				cc = cache.New(sp.Cache)
			}
			c.levels[j] = level{
				cache:     cc,
				latency:   sp.Cache.Latency,
				pqSize:    sp.Cache.PQSize,
				shared:    sp.Shared,
				inclusive: sp.Inclusive,
				pfLevel:   pfLevelFor(j, len(specs)),
				pq:        newPQTracker(sp.Cache.PQSize),
			}
		}
		c.issueBuf = make([]prefetch.Request, 0, max(specs[0].Cache.PQSize, 1))
		m.cores = append(m.cores, c)
	}
	for j, cc := range m.shared {
		pfLevel := pfLevelFor(j, len(specs))
		if cc != nil {
			cc.PrefetchTrace = prefetchEventHook(m.cores, pfLevel)
			continue
		}
		for i, c := range m.cores {
			c.levels[j].cache.PrefetchTrace = prefetchEventHook(m.cores[i:i+1], pfLevel)
		}
	}
	return m
}

// prefetchEventHook builds the one prefetch-event hook of a cache
// object at pfLevel seen by the cores cs: the owning core of a
// private level, every core for a shared one. When tracing is on,
// each event reaches every one of those cores' lifecycle trackers;
// each tracker resolves only the requests it issued, so per-core
// snapshots stay attributable. Uses and deaths then reach the OnFill
// of the last core in cs (SPP+PPF, Pythia and DSPatch learn from
// them): the owner of a private level, but the machine's last core
// for a shared one, whichever core issued the line.
func prefetchEventHook(cs []*Core, pfLevel prefetch.Level) func(cache.PrefetchEvent) {
	fb := cs[len(cs)-1].pf
	return func(ev cache.PrefetchEvent) {
		if cs[0].lt != nil { // tracing covers every core or none
			for _, c := range cs {
				c.lt.cacheEvent(pfLevel, ev)
			}
		}
		if ev.Kind != cache.PrefetchFilled {
			fb.OnFill(ev.Line, pfLevel, ev.Kind == cache.PrefetchUsed)
		}
	}
}

// pfLevelFor maps a hierarchy index to the prefetch.Level label used
// for request targeting, per-level statistics and prefetcher feedback:
// the innermost level is LevelL1, the outermost LevelLLC, and every
// level between maps to LevelL2.
func pfLevelFor(idx, n int) prefetch.Level {
	switch {
	case idx == 0:
		return prefetch.LevelL1
	case idx == n-1:
		return prefetch.LevelLLC
	default:
		return prefetch.LevelL2
	}
}

// levelIndex maps a request's target prefetch.Level to a hierarchy
// index (the inverse of pfLevelFor): LevelL1 is the innermost level,
// LevelLLC the outermost, LevelL2 the second level when the hierarchy
// has a middle and the outermost otherwise. It reports false for
// LevelNone and unknown levels (such requests are silently admitted
// and dropped, as before).
func (c *Core) levelIndex(l prefetch.Level) (int, bool) {
	switch l {
	case prefetch.LevelL1:
		return 0, true
	case prefetch.LevelL2:
		if len(c.levels) >= 3 {
			return 1, true
		}
		return len(c.levels) - 1, true
	case prefetch.LevelLLC:
		return len(c.levels) - 1, true
	default:
		return 0, false
	}
}

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns the i-th core.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Levels returns the number of cache levels in the hierarchy.
func (m *Machine) Levels() int { return len(m.specs) }

// CacheAt returns the cache at hierarchy level idx (0 = innermost).
// Shared levels return the machine-wide instance.
func (c *Core) CacheAt(idx int) *cache.Cache { return c.levels[idx].cache }

// attachPrefetcher installs a prefetcher at hierarchy level idx
// (1 ≤ idx < Levels; the innermost level's prefetcher is the one the
// core was constructed with). It observes the demand accesses that
// reach the level (with the PC of the originating load), fills that
// level only, and is notified of the level's evictions.
func (c *Core) attachPrefetcher(idx int, pf prefetch.Prefetcher) {
	if idx <= 0 || idx >= len(c.levels) {
		panic(fmt.Sprintf("sim: attach level %d out of range [1, %d]", idx, len(c.levels)-1))
	}
	lv := &c.levels[idx]
	lv.attached = pf
	lv.attachBuf = make([]prefetch.Request, 0, max(lv.pqSize, 1))
}

// EnableLifecycleTracing turns on per-request prefetch lifecycle
// tracking on every core: each prefetch is followed from issue through
// fill to its first demand use (or untouched death) and classified as
// timely, late, useless or redundant, aggregated per prefetcher, per
// cache level and per 4KB region. Shared levels fan their lifecycle
// events out to every core's tracker (see prefetchEventHook). When
// two cores race a prefetch for the same shared line, both lifecycles
// resolve on the same event — a small over-count that keeps the
// trackers independent. The optional sink receives one LifecycleEvent
// per resolved request (pass nil to keep aggregates only) and is
// shared by all cores. Call before Run; each Result then carries its
// core's snapshots.
func (m *Machine) EnableLifecycleTracing(sink func(LifecycleEvent)) {
	for _, c := range m.cores {
		c.lt = newLifecycleTracker(sink)
	}
}

// --- statistics windows ---

// resetPrivateStats zeroes one core's private-structure counters (its
// warm-up boundary). Shared levels reset once, via resetSharedStats,
// when the last core leaves warm-up.
func (c *Core) resetPrivateStats() {
	for j := range c.levels {
		if !c.levels[j].shared {
			c.levels[j].cache.ResetStats()
		}
	}
	c.dtlb.ResetStats()
	c.pfStats = PrefetchIssueStats{}
	if c.lt != nil {
		c.lt.reset()
	}
}

// resetSharedStats zeroes the shared levels and the DRAM counters.
func (m *Machine) resetSharedStats() {
	for _, cc := range m.shared {
		if cc != nil {
			cc.ResetStats()
		}
	}
	m.mem.ResetStats()
}

// coreState tracks one core's progress through Run.
type coreState struct {
	src        trace.Source
	warm       bool
	finished   bool
	startCycle uint64
	startInstr uint64
	wraps      int
}

// maxTraceWraps bounds how many times trace replay restarts a trace
// that ends before its core's measurement window does.
const maxTraceWraps = 1000

// Run replays one trace per core, interleaved by simulated time (the
// core furthest behind in cycles steps next), and returns per-core
// results. The first cfg.Warmup instructions of each core run outside
// the measurement window; measurement then covers cfg.Measure
// instructions (or the rest of the trace if 0).
//
// Cache, DRAM and TLB statistics count from cycle 0 and reset at each
// core's warm-up boundary (shared structures when the last core
// warms), so a trace that ends before cfg.Warmup still yields a Result
// whose cache/DRAM/TLB statistics cover the whole run instead of
// reading all-zero.
//
// With trace replay enabled (NewMachineAt's replay argument), traces
// that end before a core finishes its measurement window are replayed
// from the start, as ChampSim does for multi-programmed mixes, at most
// maxTraceWraps times; cfg.Measure must be > 0 in that mode.
func (m *Machine) Run(traces []trace.Source) []Result {
	if len(traces) != len(m.cores) {
		panic(fmt.Sprintf("sim: %d traces for %d cores", len(traces), len(m.cores)))
	}
	if m.replay && m.cfg.Measure == 0 {
		panic("sim: trace-replay (multicore) runs need cfg.Measure > 0")
	}
	states := make([]coreState, len(m.cores))
	for i, src := range traces {
		src.Reset()
		states[i] = coreState{src: src}
	}
	warmed := 0

	for {
		// Step the laggard unfinished core to keep simulated time aligned.
		idx := -1
		var minCycle uint64
		for i := range states {
			if states[i].finished {
				continue
			}
			cyc := m.cores[i].cpu.Cycle()
			if idx == -1 || cyc < minCycle {
				idx, minCycle = i, cyc
			}
		}
		if idx == -1 {
			break
		}
		c, st := m.cores[idx], &states[idx]

		r, ok := st.src.Next()
		if !ok {
			if !m.replay {
				st.finished = true
				continue
			}
			st.src.Reset()
			st.wraps++
			if r, ok = st.src.Next(); !ok || st.wraps > maxTraceWraps {
				st.finished = true
				continue
			}
		}
		if !st.warm && c.cpu.Dispatched() >= m.cfg.Warmup {
			st.warm = true
			c.resetPrivateStats()
			c.statsOn = true
			st.startCycle = c.cpu.Cycle()
			st.startInstr = c.cpu.Dispatched()
			warmed++
			if warmed == len(m.cores) {
				m.resetSharedStats()
			}
		}
		if st.warm && m.cfg.Measure > 0 && c.cpu.Dispatched()-st.startInstr >= m.cfg.Measure {
			st.finished = true
			continue
		}
		c.step(r)
	}

	results := make([]Result, len(m.cores))
	for i, c := range m.cores {
		st := &states[i]
		end := c.cpu.Drain()
		var cycles uint64
		if end >= st.startCycle {
			cycles = end - st.startCycle
		}
		var lifecycle []LifecycleSnapshot
		if c.lt != nil {
			c.lt.flushOpen()
			lifecycle = c.lt.snapshots()
		}
		results[i] = Result{
			Trace:        st.src.Name(),
			Prefetcher:   c.pf.Name(),
			Instructions: c.cpu.Dispatched() - st.startInstr,
			Cycles:       cycles,
			L1D:          c.levels[0].cache.Stats(),
			L2C:          c.midStats(),
			LLC:          c.levels[len(c.levels)-1].cache.Stats(),
			DRAM:         m.mem.Stats(),
			TLB:          c.dtlb.Stats(),
			PF:           c.pfStats,
			Lifecycle:    lifecycle,
		}
	}
	return results
}

// midStats fills the legacy Result.L2C slot: the stats of level 1 for
// hierarchies of three or more levels, zero for a 2-level hierarchy
// (which has no L2C).
func (c *Core) midStats() cache.Stats {
	if len(c.levels) >= 3 {
		return c.levels[1].cache.Stats()
	}
	return cache.Stats{}
}

// --- the per-access pipeline ---

// step dispatches one trace record: its leading non-memory instructions
// and the load itself. Address-dependent loads wait for the previous
// load's data before issuing to the memory hierarchy.
//
//pmp:hotpath
func (c *Core) step(r trace.Record) {
	if r.Gap > 0 {
		c.cpu.DispatchNonLoads(int(r.Gap))
	}
	//lint:ignore hotalloc closure does not escape DispatchLoad and stays on the stack; BenchmarkSystemStep pins 0 allocs/access
	c.cpu.DispatchLoad(func(issue uint64) uint64 {
		chain := mem.HashPC(r.PC, 6)
		switch r.Dep {
		case trace.DepPrev:
			if c.prevDone > issue {
				issue = c.prevDone
			}
		case trace.DepChain:
			if c.chainDone[chain] > issue {
				issue = c.chainDone[chain]
			}
		}
		done := c.demandAccess(r.PC, r.Addr, issue)
		c.chainDone[chain] = done
		c.prevDone = done
		return done
	})
}

// demandAccess services a demand load, trains the prefetcher, and lets
// it issue; it returns the data-ready cycle. Address translation
// happens first: TLB misses delay the cache access.
//
//pmp:hotpath
func (c *Core) demandAccess(pc uint64, addr mem.Addr, now uint64) uint64 {
	now += c.dtlb.Translate(addr)
	line := addr.Line()
	done, hit := c.lookupTop(line, now, pc)
	c.pf.Train(prefetch.Access{PC: pc, Addr: addr, Cycle: now, Hit: hit})
	c.issuePrefetches(now)
	return done
}

// lookupTop performs the demand path at the innermost level, walking
// the outer hierarchy on a miss. Unlike the outer levels, a demand
// miss here stalls (rather than drops) when the MSHR file is full.
func (c *Core) lookupTop(line mem.Addr, now uint64, pc uint64) (uint64, bool) {
	top := &c.levels[0]
	if hit, ready := top.cache.Lookup(line, now, true); hit {
		return ready, true
	}
	if done, ok := top.cache.InFlight(line, now); ok {
		return done, false // merged onto an outstanding miss
	}
	t := now
	for !top.cache.ReserveMSHR(line, t, t+1, true) {
		next, ok := top.cache.EarliestCompletion(t)
		if !ok {
			break
		}
		t = next
	}
	done := c.fetch(1, line, t+top.latency, true, false, pc)
	top.cache.ReserveMSHR(line, t, done, true) // update the reserved completion
	c.fill(0, line, done, false)
	return done, false
}

// fetch returns the cycle the line is available from hierarchy level
// idx, walking outward (and to DRAM past the last level) on misses.
// demand marks demand-initiated walks for the stats; pf marks
// prefetch-initiated fills; pc is the originating load's PC for
// level-attached prefetcher training (0 on prefetch walks).
func (c *Core) fetch(idx int, line mem.Addr, t uint64, demand, pf bool, pc uint64) uint64 {
	if idx == len(c.levels) {
		return c.m.mem.Access(line.LineID()+c.index, t, demand)
	}
	lv := &c.levels[idx]
	if demand && lv.attached != nil {
		defer c.issueAttached(idx, t)
	}
	if hit, ready := lv.cache.Lookup(line, t, demand); hit {
		if demand && lv.attached != nil {
			lv.attached.Train(prefetch.Access{PC: pc, Addr: line, Cycle: t, Hit: true})
		}
		return ready
	}
	if done, ok := lv.cache.InFlight(line, t); ok {
		return done
	}
	if demand && lv.attached != nil {
		lv.attached.Train(prefetch.Access{PC: pc, Addr: line, Cycle: t, Hit: false})
	}
	done := c.fetch(idx+1, line, t+lv.latency, demand, pf, pc)
	lv.cache.ReserveMSHR(line, t, done, demand)
	c.fill(idx, line, done, pf)
	return done
}

// fill inserts a line at hierarchy level idx. Clean evictions close
// the loop with the prefetchers (the innermost level's eviction feeds
// SMS-style accumulation) and, at inclusive levels, back-invalidate
// the inner levels of every core sharing the evicting cache.
func (c *Core) fill(idx int, line mem.Addr, ready uint64, pf bool) {
	lv := &c.levels[idx]
	ev := lv.cache.Fill(line, ready, pf)
	if ev.Kind != cache.EvictClean {
		return
	}
	if idx == 0 {
		c.pf.OnEvict(ev.Line)
	}
	if lv.inclusive {
		c.m.backInvalidate(idx, ev.Line)
	}
	if lv.attached != nil {
		lv.attached.OnEvict(ev.Line)
	}
}

// backInvalidate removes a line displaced at level idx from every
// inner level (inclusive hierarchy). Shared inner levels are
// invalidated once; private inner levels in every core that shares
// the evicting level.
func (m *Machine) backInvalidate(idx int, line mem.Addr) {
	for j := idx - 1; j > 0; j-- {
		if m.shared[j] != nil {
			m.shared[j].Invalidate(line)
		}
	}
	for _, c := range m.cores {
		c.invalidateInner(idx, line)
	}
}

// invalidateInner removes the line from this core's private levels
// inside idx, outermost first; an innermost-level invalidation is
// reported to the core's prefetcher as an eviction.
func (c *Core) invalidateInner(idx int, line mem.Addr) {
	for j := idx - 1; j > 0; j-- {
		if c.levels[j].shared {
			continue
		}
		c.levels[j].cache.Invalidate(line)
	}
	if idx > 0 {
		if c.levels[0].cache.Invalidate(line) {
			c.pf.OnEvict(line)
		}
	}
}

// --- prefetch issue ---

// pqTracker bounds in-flight prefetches at one level. minDone caches a
// lower bound on the occupied entries' completion cycles so the common
// probe — nothing has completed since the last one — answers without
// scanning (the same trick as the MSHR file's prune fast path).
type pqTracker struct {
	done    []uint64 // completion cycles of occupied entries
	minDone uint64   // lower bound on min(done); ^0 when empty
}

func newPQTracker(capacity int) pqTracker {
	return pqTracker{done: make([]uint64, 0, capacity), minDone: ^uint64(0)}
}

// free reports whether an entry is available at `now`, pruning
// completed entries.
//
//pmp:hotpath
func (p *pqTracker) free(now uint64) bool {
	if p.minDone > now {
		return len(p.done) < cap(p.done)
	}
	live := p.done[:0]
	minDone := ^uint64(0)
	for _, d := range p.done {
		if d > now {
			live = append(live, d)
			minDone = min(minDone, d)
		}
	}
	p.done = live
	p.minDone = minDone
	return len(p.done) < cap(p.done)
}

// add records one in-flight prefetch. Gated by free(), so the append
// never outgrows the capacity newPQTracker reserved.
func (p *pqTracker) add(done uint64) {
	//lint:ignore hotalloc bounded by preallocated capacity; add is only reached after free() reports len < cap
	p.done = append(p.done, done)
	p.minDone = min(p.minDone, done)
}

// prefetchRoom reports whether the cache can accept a prefetch without
// consuming its demand-reserved MSHR.
func prefetchRoom(c *cache.Cache, now uint64) bool {
	return c.MSHRBusy(now) < c.Config().MSHRs-1
}

// issuePrefetches drains the core's prefetcher into the hierarchy,
// bounded by the innermost level's prefetch queue size per demand
// access.
//
// Prefetchers that support requeueing get the paper's PB
// suspend/resume semantics: unadmitted requests go back and are
// retried on a later access, without blocking requests for other
// levels behind them. For queue-only prefetchers a failed admission
// stops this round, leaving the remaining requests in their internal
// queue for the next access.
func (c *Core) issuePrefetches(now uint64) {
	src := ""
	if c.lt != nil {
		src = c.pf.Name()
	}
	budget := c.levels[0].pqSize
	if rq, ok := c.pf.(prefetch.Requeuer); ok {
		reqs := c.pf.IssueInto(c.issueBuf[:0], budget)
		c.issueBuf = reqs[:0]
		for _, r := range reqs {
			if !c.admit(r, now, src) {
				rq.Requeue(r)
			}
		}
		return
	}
	for ; budget > 0; budget-- {
		reqs := c.pf.IssueInto(c.issueBuf[:0], 1)
		c.issueBuf = reqs[:0]
		if len(reqs) == 0 {
			return
		}
		if !c.admit(reqs[0], now, src) {
			return
		}
	}
}

// issueAttached drains the prefetcher attached at hierarchy level idx;
// its requests always fill that level regardless of their nominal
// target.
func (c *Core) issueAttached(idx int, now uint64) {
	lv := &c.levels[idx]
	src := ""
	if c.lt != nil {
		src = lv.attached.Name()
	}
	for budget := lv.pqSize; budget > 0; budget-- {
		reqs := lv.attached.IssueInto(lv.attachBuf[:0], 1)
		lv.attachBuf = reqs[:0]
		if len(reqs) == 0 {
			return
		}
		r := reqs[0]
		r.Level = lv.pfLevel
		if !c.prefetchOne(idx, r, now, src) {
			if rq, ok := lv.attached.(prefetch.Requeuer); ok {
				rq.Requeue(reqs[0])
			}
			return
		}
	}
}

// admit routes one primary-prefetcher request to its target level. It
// reports whether the request was admitted; requests with no
// prefetchable target level (LevelNone) are silently accepted.
func (c *Core) admit(r prefetch.Request, now uint64, src string) bool {
	idx, ok := c.levelIndex(r.Level)
	if !ok {
		return true
	}
	return c.prefetchOne(idx, r, now, src)
}

// prefetchOne injects a single prefetch request at hierarchy level
// idx. It reports whether the request was admitted: requests for
// lines already present or in flight are filtered (admitted, nothing
// to do); requests without a free prefetch MSHR return false before
// consuming any downstream bandwidth so the caller can requeue them.
// src names the issuing prefetcher for lifecycle attribution (unused
// when tracing is off); r.Level labels the per-level issue stats.
func (c *Core) prefetchOne(idx int, r prefetch.Request, now uint64, src string) bool {
	line := r.Addr.Line()
	lv := &c.levels[idx]
	if lv.cache.Contains(line) {
		c.dropRedundant(r.Level, line, now, src)
		return true
	}
	if _, ok := lv.cache.InFlight(line, now); ok {
		c.dropRedundant(r.Level, line, now, src)
		return true
	}
	if !lv.pq.free(now) || !prefetchRoom(lv.cache, now) {
		c.pfStats.DroppedMSH++
		return false
	}
	// Record the issue before the fill walk so the tracker can match
	// the fill event it triggers. Like the other issue stats,
	// lifecycles only accumulate inside the measurement window.
	if c.lt != nil && c.statsOn {
		c.lt.issued(src, r.Level, line, now)
	}
	done := c.fetch(idx+1, line, now+lv.latency, false, true, 0)
	lv.cache.ReserveMSHR(line, now, done, false)
	lv.pq.add(now + lv.latency)
	c.fill(idx, line, done, true)
	if c.statsOn {
		c.pfStats.Issued[r.Level]++
	}
	return true
}

// dropRedundant accounts a prefetch filtered at issue (line already
// present or in flight at its target level).
func (c *Core) dropRedundant(level prefetch.Level, line mem.Addr, now uint64, src string) {
	c.pfStats.DroppedPQ++
	if c.lt != nil && c.statsOn {
		c.lt.redundant(src, level, line, now)
	}
}
