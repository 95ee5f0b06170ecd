package cache

import (
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

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || SRRIP.String() != "srrip" || Policy(9).String() != "invalid" {
		t.Error("policy strings wrong")
	}
}

func TestPolicyValidate(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = Policy(9)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A hot line that is re-referenced survives a scan of single-use
	// lines under SRRIP, where LRU would evict it.
	run := func(policy Policy) bool {
		cfg := Config{Name: "t", Sets: 1, Ways: 4, Latency: 1, MSHRs: 2, Policy: policy}
		c := New(cfg)
		hot := mem.Addr(0)
		c.Fill(hot, 0, false)
		cycle := uint64(1)
		for i := 1; i <= 12; i++ {
			// Re-reference the hot line between scan fills.
			c.Lookup(hot, cycle, true)
			cycle++
			c.Fill(mem.Addr(i*mem.LineBytes*1), cycle, false)
			cycle++
		}
		return c.Contains(hot)
	}
	if !run(SRRIP) {
		t.Error("SRRIP should keep the re-referenced hot line through a scan")
	}
}

func TestSRRIPVictimAging(t *testing.T) {
	cfg := Config{Name: "t", Sets: 1, Ways: 2, Latency: 1, MSHRs: 2, Policy: SRRIP}
	c := New(cfg)
	c.Fill(0, 0, false)
	c.Fill(64, 0, false)
	// Both at rrpv=2; a third fill must age the set and evict one
	// without looping forever.
	ev := c.Fill(128, 0, false)
	if ev.Kind != EvictClean {
		t.Fatal("third fill must evict")
	}
	if !c.Contains(128) {
		t.Error("new line must be resident")
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
