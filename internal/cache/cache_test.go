package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmp/internal/mem"
)

func testConfig() Config {
	return Config{Name: "T", Sets: 4, Ways: 2, Latency: 5, MSHRs: 4, PQSize: 8}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1, MSHRs: 1},
		{Name: "b", Sets: 3, Ways: 1, MSHRs: 1},
		{Name: "c", Sets: 4, Ways: 0, MSHRs: 1},
		{Name: "d", Sets: 4, Ways: 1, MSHRs: 0},
		{Name: "e", Sets: 4, Ways: 128, MSHRs: 1},
		{Name: "f", Sets: 4, Ways: 1, MSHRs: 1, PQSize: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestConfigSizeBytes(t *testing.T) {
	cfg := Config{Name: "L1D", Sets: 64, Ways: 12, MSHRs: 16}
	if got := cfg.SizeBytes(); got != 48*1024 {
		t.Errorf("SizeBytes() = %d, want 49152", got)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New(testConfig())
	a := mem.Addr(0x1000)
	if hit, _ := c.Lookup(a, 100, true); hit {
		t.Fatal("cold cache should miss")
	}
	c.Fill(a, 150, false)
	hit, ready := c.Lookup(a, 200, true)
	if !hit {
		t.Fatal("filled line should hit")
	}
	if ready != 205 {
		t.Errorf("ready = %d, want now+latency = 205", ready)
	}
	s := c.Stats()
	if s.DemandAccesses != 2 || s.DemandHits != 1 || s.DemandMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHitUnderFillPaysResidual(t *testing.T) {
	c := New(testConfig())
	a := mem.Addr(0x2000)
	c.Fill(a, 500, false) // fill completes at cycle 500
	if _, ready := c.Lookup(a, 100, true); ready != 500 {
		t.Errorf("hit under fill: ready = %d, want 500", ready)
	}
	// After the fill is ready, normal latency applies.
	if _, ready := c.Lookup(a, 600, true); ready != 605 {
		t.Errorf("post-fill hit: ready = %d, want 605", ready)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(testConfig()) // 2 ways
	// Three lines mapping to the same set: line IDs differ by Sets.
	stride := mem.Addr(4 * mem.LineBytes)
	a, b, d := mem.Addr(0), stride, 2*stride
	c.Fill(a, 0, false)
	c.Fill(b, 0, false)
	c.Lookup(a, 10, true) // touch a, so b is LRU
	ev := c.Fill(d, 20, false)
	if ev.Kind != EvictClean || ev.Line != b {
		t.Errorf("eviction = %+v, want line %#x", ev, uint64(b))
	}
	if hit, _ := c.Lookup(a, 30, true); !hit {
		t.Error("a should survive")
	}
	if hit, _ := c.Lookup(b, 30, true); hit {
		t.Error("b should be evicted")
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := New(testConfig())
	stride := mem.Addr(4 * mem.LineBytes)

	// Useful: prefetched then demanded.
	c.Fill(0, 0, true)
	c.Lookup(0, 10, true)
	// Useless: prefetched, evicted untouched.
	c.Fill(stride, 0, true)
	c.Fill(2*stride, 0, false)
	c.Fill(3*stride, 0, false) // evicts one of the set; LRU is the prefetched line? order: stride(pf), 2*stride, 3*stride -> evicts stride
	s := c.Stats()
	if s.UsefulPrefetch != 1 {
		t.Errorf("useful = %d, want 1", s.UsefulPrefetch)
	}
	if s.UselessPrefetx != 1 {
		t.Errorf("useless = %d, want 1", s.UselessPrefetx)
	}
	if s.PrefetchFills != 2 {
		t.Errorf("prefetch fills = %d, want 2", s.PrefetchFills)
	}
	if got := s.Accuracy(); got != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", got)
	}
}

func TestUsefulCountedOnce(t *testing.T) {
	c := New(testConfig())
	c.Fill(0, 0, true)
	c.Lookup(0, 1, true)
	c.Lookup(0, 2, true)
	if s := c.Stats(); s.UsefulPrefetch != 1 {
		t.Errorf("useful = %d, want 1 (count once per fill)", s.UsefulPrefetch)
	}
}

func TestLatePrefetchCounted(t *testing.T) {
	c := New(testConfig())
	c.Fill(0, 1000, true)             // in flight until cycle 1000
	_, ready := c.Lookup(0, 10, true) // demand arrives early
	if ready != 1000 {
		t.Errorf("ready = %d, want 1000", ready)
	}
	if s := c.Stats(); s.LatePrefetch != 1 {
		t.Errorf("late = %d, want 1", s.LatePrefetch)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(testConfig())
	c.Fill(0, 0, true)
	if !c.Invalidate(0) {
		t.Fatal("invalidate should find the line")
	}
	if c.Invalidate(0) {
		t.Fatal("second invalidate should miss")
	}
	if hit, _ := c.Lookup(0, 5, true); hit {
		t.Error("invalidated line should miss")
	}
	if s := c.Stats(); s.UselessPrefetx != 1 {
		t.Errorf("invalidated untouched prefetch should be useless, got %d", s.UselessPrefetx)
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := New(testConfig())
	stride := mem.Addr(4 * mem.LineBytes)
	c.Fill(0, 0, false)
	c.Fill(stride, 0, false)
	// 0 is LRU. Contains must not promote it.
	if !c.Contains(0) {
		t.Fatal("line should be present")
	}
	ev := c.Fill(2*stride, 0, false)
	if ev.Line != 0 {
		t.Errorf("evicted %#x, want 0 (Contains must not refresh LRU)", uint64(ev.Line))
	}
}

func TestRefillRefreshesReady(t *testing.T) {
	c := New(testConfig())
	c.Fill(0, 1000, true)
	ev := c.Fill(0, 400, false) // demand fill for the same line completes sooner
	if ev.Kind != EvictNone {
		t.Errorf("refill should not evict, got %+v", ev)
	}
	if _, ready := c.Lookup(0, 10, true); ready != 400 {
		t.Errorf("ready = %d, want earliest fill 400", ready)
	}
}

func TestMSHRReservation(t *testing.T) {
	c := New(testConfig()) // 4 MSHRs
	now := uint64(0)
	for i := 0; i < 3; i++ {
		if !c.ReserveMSHR(mem.Addr(i*64), now, 100, false) {
			t.Fatalf("prefetch reservation %d failed", i)
		}
	}
	// Prefetch must leave one MSHR for demand.
	if c.ReserveMSHR(mem.Addr(3*64), now, 100, false) {
		t.Error("4th prefetch reservation should fail (reserve one for demand)")
	}
	if !c.ReserveMSHR(mem.Addr(3*64), now, 100, true) {
		t.Error("demand should take the last MSHR")
	}
	if c.ReserveMSHR(mem.Addr(4*64), now, 100, true) {
		t.Error("5th reservation should fail outright")
	}
	// After completion they free up.
	if !c.ReserveMSHR(mem.Addr(5*64), 200, 300, false) {
		t.Error("MSHRs should be free after completions")
	}
	if got := c.MSHRBusy(200); got != 1 {
		t.Errorf("busy = %d, want 1", got)
	}
}

func TestInFlightMerge(t *testing.T) {
	c := New(testConfig())
	c.ReserveMSHR(0, 0, 500, true)
	done, ok := c.InFlight(0, 100)
	if !ok || done != 500 {
		t.Errorf("InFlight = (%d, %v), want (500, true)", done, ok)
	}
	if _, ok := c.InFlight(0, 600); ok {
		t.Error("completed miss should no longer be in flight")
	}
	if _, ok := c.InFlight(64, 100); ok {
		t.Error("other line should not be in flight")
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and a just-filled line is always present.
func TestCapacityInvariant(t *testing.T) {
	cfg := Config{Name: "t", Sets: 8, Ways: 2, Latency: 1, MSHRs: 2}
	f := func(raw []uint16) bool {
		c := New(cfg)
		live := map[mem.Addr]bool{}
		for _, r := range raw {
			a := mem.Addr(r) * mem.LineBytes
			ev := c.Fill(a, 0, false)
			live[a] = true
			if ev.Kind == EvictClean {
				delete(live, ev.Line)
			}
			if !c.Contains(a) {
				return false
			}
			if len(live) > cfg.Sets*cfg.Ways {
				return false
			}
		}
		// Everything we believe live must really be present.
		for a := range live {
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReserveMSHRUpdatesExisting(t *testing.T) {
	c := New(testConfig()) // 4 MSHRs
	// Fill the file completely with demand reservations.
	for i := 0; i < 4; i++ {
		if !c.ReserveMSHR(mem.Addr(i*64), 0, 10, true) {
			t.Fatalf("reservation %d failed", i)
		}
	}
	// Updating an existing line's completion must succeed even though
	// the file is full, and must not consume a new slot.
	if !c.ReserveMSHR(0, 0, 500, true) {
		t.Fatal("same-line update rejected on a full file")
	}
	if done, ok := c.InFlight(0, 100); !ok || done != 500 {
		t.Errorf("InFlight = (%d, %v), want (500, true)", done, ok)
	}
	if got := c.MSHRBusy(5); got != 4 {
		t.Errorf("busy = %d, want 4 (update must not add a slot)", got)
	}
}

func TestPrefetchTraceFillUseTimely(t *testing.T) {
	c := New(testConfig())
	var events []PrefetchEvent
	c.PrefetchTrace = func(ev PrefetchEvent) { events = append(events, ev) }
	a := mem.Addr(0x1000)
	c.Fill(a, 150, true)
	c.Lookup(a, 200, true) // demand use well after the fill completed
	if len(events) != 2 {
		t.Fatalf("got %d events, want fill+use: %+v", len(events), events)
	}
	fill, use := events[0], events[1]
	if fill.Kind != PrefetchFilled || fill.Line != a || fill.Cycle != 150 {
		t.Errorf("fill event = %+v", fill)
	}
	if use.Kind != PrefetchUsed || use.Line != a || use.Cycle != 200 || use.FillCycle != 150 {
		t.Errorf("use event = %+v", use)
	}
	if use.Late {
		t.Error("fill completed 50 cycles before use; must not be late")
	}
	// A second demand hit resolves nothing new.
	c.Lookup(a, 300, true)
	if len(events) != 2 {
		t.Errorf("second hit emitted extra events: %+v", events[2:])
	}
}

func TestPrefetchTraceLateUse(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	var events []PrefetchEvent
	c.PrefetchTrace = func(ev PrefetchEvent) { events = append(events, ev) }
	a := mem.Addr(0x2000)
	c.Fill(a, 500, true)   // fill still in flight...
	c.Lookup(a, 100, true) // ...when the demand arrives
	if len(events) != 2 || events[1].Kind != PrefetchUsed {
		t.Fatalf("events = %+v", events)
	}
	if !events[1].Late {
		t.Error("fill completing 400 cycles after the demand must be late")
	}
	if events[1].FillCycle != 500 {
		t.Errorf("FillCycle = %d, want 500", events[1].FillCycle)
	}
	// Consistency with the aggregate counter, which counts both late
	// uses.
	b := mem.Addr(0x4000)
	c.Fill(b, 900, true)
	c.Lookup(b, 200, true)
	if s := c.Stats(); s.LatePrefetch != 2 {
		t.Errorf("LatePrefetch = %d, want 2", s.LatePrefetch)
	}
	if last := events[len(events)-1]; last.Kind != PrefetchUsed || !last.Late {
		t.Errorf("trace and Stats.LatePrefetch disagree: %+v", last)
	}
}

func TestPrefetchTraceDeadOnEvictionAndInvalidate(t *testing.T) {
	cfg := testConfig()
	cfg.Ways = 1 // direct-mapped: second fill of a set evicts the first
	c := New(cfg)
	var events []PrefetchEvent
	c.PrefetchTrace = func(ev PrefetchEvent) { events = append(events, ev) }
	a := mem.Addr(0x1000)
	c.Fill(a, 100, true)
	// Same set (4 sets x 64B lines): 0x1000 + 4*64.
	conflict := a + mem.Addr(4*mem.LineBytes)
	c.Fill(conflict, 300, false)
	var dead []PrefetchEvent
	for _, ev := range events {
		if ev.Kind == PrefetchDead {
			dead = append(dead, ev)
		}
	}
	if len(dead) != 1 || dead[0].Line != a || dead[0].Cycle != 300 {
		t.Fatalf("dead events = %+v, want untouched %#x dead at 300", dead, a)
	}

	// Invalidation of an untouched prefetched line is dead too.
	b := mem.Addr(0x2000)
	c.Fill(b, 100, true)
	c.Invalidate(b)
	last := events[len(events)-1]
	if last.Kind != PrefetchDead || last.Line != b {
		t.Fatalf("invalidate emitted %+v, want dead %#x", last, b)
	}

	// A used prefetched line dies silently.
	u := mem.Addr(0x3000)
	c.Fill(u, 100, true)
	c.Lookup(u, 200, true)
	n := len(events)
	c.Invalidate(u)
	if len(events) != n {
		t.Errorf("used line emitted %+v on invalidate", events[n:])
	}
}

func TestPrefetchTraceSilentForDemandFills(t *testing.T) {
	c := New(testConfig())
	var events []PrefetchEvent
	c.PrefetchTrace = func(ev PrefetchEvent) { events = append(events, ev) }
	a := mem.Addr(0x1000)
	c.Fill(a, 100, false)
	c.Lookup(a, 200, true)
	c.Invalidate(a)
	if len(events) != 0 {
		t.Errorf("demand-filled line emitted %+v", events)
	}
}

// refCache is the cache's previous implementation, kept as the
// behavioural reference for the compact ways and set summaries: tags
// and metadata in parallel arrays, an invalid-tag sentinel and a
// global LRU stamp that every lookup and fill advances. Its MSHRs are
// mapMSHR, the map-backed reference of mshr_test.go.
type refCache struct {
	cfg     Config
	tags    []mem.Addr // Sets*Ways, row-major; refInvalidTag when empty
	meta    []refLineMeta
	setMask uint64
	stamp   uint64
	stats   Stats
	mshr    mapMSHR

	PrefetchTrace func(ev PrefetchEvent)
}

type refLineMeta struct {
	lru        uint64 // last-touch stamp
	ready      uint64 // cycle the fill completes
	prefetched bool
	used       bool
}

// refInvalidTag marks an empty way; real tags are line-aligned.
const refInvalidTag mem.Addr = 1

func newRefCache(cfg Config) *refCache {
	c := &refCache{
		cfg:     cfg,
		tags:    make([]mem.Addr, cfg.Sets*cfg.Ways),
		meta:    make([]refLineMeta, cfg.Sets*cfg.Ways),
		setMask: uint64(cfg.Sets - 1),
		mshr:    mapMSHR{inflight: map[mem.Addr]uint64{}},
	}
	for i := range c.tags {
		c.tags[i] = refInvalidTag
	}
	return c
}

func (c *refCache) setBase(a mem.Addr) int {
	return int(a.LineID()&c.setMask) * c.cfg.Ways
}

func (c *refCache) findWay(a mem.Addr) int {
	base := c.setBase(a)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == a {
			return base + i
		}
	}
	return -1
}

func (c *refCache) Lookup(a mem.Addr, now uint64, demand bool) (bool, uint64) {
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

func (c *refCache) Contains(a mem.Addr) bool { return c.findWay(a.Line()) >= 0 }

func (c *refCache) Fill(a mem.Addr, readyCycle uint64, prefetched bool) Eviction {
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
	if vt := c.tags[victim]; vt != refInvalidTag {
		ev = Eviction{Kind: EvictClean, Line: vt, Prefetched: v.prefetched, Used: v.used}
		if v.prefetched && !v.used {
			c.stats.UselessPrefetx++
			if c.PrefetchTrace != nil {
				c.PrefetchTrace(PrefetchEvent{Kind: PrefetchDead, Line: vt, Cycle: readyCycle})
			}
		}
	}
	c.tags[victim] = a
	*v = refLineMeta{lru: c.stamp, ready: readyCycle, prefetched: prefetched}
	if prefetched && c.PrefetchTrace != nil {
		c.PrefetchTrace(PrefetchEvent{Kind: PrefetchFilled, Line: a, Cycle: readyCycle})
	}
	return ev
}

// victimIn returns an empty way of the set starting at base, lowest
// index first, else the way with the oldest stamp.
func (c *refCache) victimIn(base int) int {
	end := base + c.cfg.Ways
	for i := base; i < end; i++ {
		if c.tags[i] == refInvalidTag {
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

func (c *refCache) Invalidate(a mem.Addr) bool {
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
	c.tags[i] = refInvalidTag
	return true
}

func (c *refCache) MSHRBusy(now uint64) int { return c.mshr.prune(now) }

func (c *refCache) InFlight(a mem.Addr, now uint64) (uint64, bool) {
	return c.mshr.inFlight(a.Line(), now)
}

func (c *refCache) ReserveMSHR(a mem.Addr, now, done uint64, demand bool) bool {
	limit := c.cfg.MSHRs
	if !demand {
		limit--
	}
	return c.mshr.reserve(a.Line(), now, done, limit)
}

// diffWays are the associativities the differential tests cover: the
// edge cases of one summary word (1, 2, 8), the paper's L1D, LLC and
// L2C (12, 16, 8), a set spanning a partial third word (20) and the
// limit of 8-bit rank lanes (127).
var diffWays = []int{1, 2, 8, 12, 16, 20, 127}

// Operation kinds of a differential run.
const (
	opLookup = iota
	opFill
	opContains
	opInvalidate
	opInFlight
	opReserve
	opBusy
	numOps
)

// cacheOp is one operation of a differential run. flag selects a
// demand Lookup or ReserveMSHR and a prefetch Fill; span is the
// distance from now to a fill's ready cycle or a reservation's done.
type cacheOp struct {
	kind uint8
	line uint16 // index into the run's line pool
	dt   uint8  // cycles since the previous operation
	flag bool
	span uint16
}

// diffCacheOps drives the cache and the reference model through ops and
// fails at the first return value, Stats snapshot or PrefetchTrace
// event on which they differ. Lines come from a pool of twice the
// cache's capacity, with a few tag bits above the set index, so sets
// fill, evict and re-fetch.
func diffCacheOps(t *testing.T, cfg Config, ops []cacheOp) {
	t.Helper()
	got, want := New(cfg), newRefCache(cfg)
	var gotEv, wantEv []PrefetchEvent
	got.PrefetchTrace = func(ev PrefetchEvent) { gotEv = append(gotEv, ev) }
	want.PrefetchTrace = func(ev PrefetchEvent) { wantEv = append(wantEv, ev) }
	pool := 2*cfg.Sets*cfg.Ways + 3
	now := uint64(0)
	for step, op := range ops {
		now += uint64(op.dt)
		// Odd byte offsets check that every entry point aligns.
		a := mem.Addr(int(op.line)%pool)<<mem.LineShift | mem.Addr(op.span%mem.LineBytes)
		span := uint64(op.span)
		var g, w any
		switch op.kind % numOps {
		case opLookup:
			gh, gr := got.Lookup(a, now, op.flag)
			wh, wr := want.Lookup(a, now, op.flag)
			g, w = [2]any{gh, gr}, [2]any{wh, wr}
		case opFill:
			g, w = got.Fill(a, now+span, op.flag), want.Fill(a, now+span, op.flag)
		case opContains:
			g, w = got.Contains(a), want.Contains(a)
		case opInvalidate:
			g, w = got.Invalidate(a), want.Invalidate(a)
		case opInFlight:
			gd, gok := got.InFlight(a, now)
			wd, wok := want.InFlight(a, now)
			g, w = [2]any{gd, gok}, [2]any{wd, wok}
		case opReserve:
			g, w = got.ReserveMSHR(a, now, now+span, op.flag), want.ReserveMSHR(a, now, now+span, op.flag)
		case opBusy:
			g, w = got.MSHRBusy(now), want.MSHRBusy(now)
		}
		if g != w {
			t.Fatalf("%d ways, step %d, op %+v at cycle %d: got %+v, reference %+v", cfg.Ways, step, op, now, g, w)
		}
		if got.Stats() != want.stats {
			t.Fatalf("%d ways, step %d, op %+v: stats %+v, reference %+v", cfg.Ways, step, op, got.Stats(), want.stats)
		}
		if len(gotEv) != len(wantEv) {
			t.Fatalf("%d ways, step %d, op %+v: events %+v, reference %+v", cfg.Ways, step, op, gotEv, wantEv)
		}
		for i := range gotEv {
			if gotEv[i] != wantEv[i] {
				t.Fatalf("%d ways, step %d, op %+v: event %+v, reference %+v", cfg.Ways, step, op, gotEv[i], wantEv[i])
			}
		}
		gotEv, wantEv = gotEv[:0], wantEv[:0]
	}
}

// TestCacheMatchesReference drives the cache and refCache through the
// same seeded random operation stream at every associativity in
// diffWays.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ways := range diffWays {
		cfg := Config{Name: "D", Sets: 4, Ways: ways, Latency: 5, MSHRs: 8}
		ops := make([]cacheOp, 40*cfg.Sets*ways+2000)
		for i := range ops {
			ops[i] = cacheOp{
				kind: uint8(rng.Intn(numOps)),
				line: uint16(rng.Intn(1 << 16)),
				dt:   uint8(rng.Intn(8)),
				flag: rng.Intn(2) == 0,
				span: uint16(rng.Intn(400)),
			}
		}
		diffCacheOps(t, cfg, ops)
	}
}

// FuzzCacheOps decodes an operation stream and a geometry from the
// input and requires the cache to match refCache on every step. The
// first two bytes pick the associativity from diffWays, the set count
// and the MSHR count; every following 6 bytes are one cacheOp.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0x31, 1, 5, 0, 2, 0x41, 9, 0, 0x20, 3, 1, 2, 0x80, 1, 2, 0x81, 3})
	f.Add([]byte{6, 0x7f, 1, 0xff, 0xff, 0, 1, 0x40, 5, 0x10, 0, 1, 0, 0x82, 7, 4, 0x10, 0x44})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Name:    "F",
			Ways:    diffWays[int(data[0])%len(diffWays)],
			Sets:    1 << (data[1] >> 4 % 3),
			Latency: 5,
			MSHRs:   1 + int(data[1]&15),
		}
		var ops []cacheOp
		for b := data[2:]; len(b) >= 6; b = b[6:] {
			ops = append(ops, cacheOp{
				kind: b[0] & 15,
				line: uint16(b[1]) | uint16(b[2])<<8,
				dt:   b[3],
				flag: b[0]&16 != 0,
				span: uint16(b[4]) | uint16(b[5])<<8,
			})
		}
		diffCacheOps(t, cfg, ops)
	})
}
