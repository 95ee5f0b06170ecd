package cache

import (
	"math/rand"
	"testing"

	"pmp/internal/mem"
)

func TestMSHRFileBasics(t *testing.T) {
	m := newMSHRFile(4)

	// Miss: reserving a new line occupies a slot.
	if !m.reserve(0x1000, 10, 50, 4) {
		t.Fatal("reserve into empty file failed")
	}
	if done, ok := m.inFlight(0x1000, 10); !ok || done != 50 {
		t.Fatalf("inFlight = (%d, %v), want (50, true)", done, ok)
	}

	// Hit on a held line refreshes the completion without a new slot,
	// even when the file is at its limit.
	for _, l := range []mem.Addr{0x2000, 0x3000, 0x4000} {
		if !m.reserve(l, 10, 60, 4) {
			t.Fatalf("reserve %#x failed", l)
		}
	}
	if !m.reserve(0x1000, 10, 70, 4) {
		t.Fatal("refresh of held line must ignore the capacity limit")
	}
	if done, _ := m.inFlight(0x1000, 10); done != 70 {
		t.Fatalf("refresh kept completion %d, want 70", done)
	}

	// Full: a new line is rejected while 4 entries are busy, and a
	// tighter limit (prefetches hold one entry back for demands)
	// rejects with room to spare.
	if m.reserve(0x5000, 10, 80, 4) {
		t.Fatal("reserve into a full file must fail")
	}
	if m.reserve(0x5000, 10, 80, 3) {
		t.Fatal("reserve over the prefetch limit must fail")
	}
	if got := m.prune(10); got != 4 {
		t.Fatalf("prune = %d busy, want 4", got)
	}

	// Completion frees slots: at cycle 60 the three 60-cycle entries
	// are stale, so a reserve prunes them and succeeds.
	if !m.reserve(0x5000, 60, 90, 4) {
		t.Fatal("reserve after completions should succeed")
	}
	if got := m.prune(60); got != 2 {
		t.Fatalf("after pruning at 60: %d busy, want 2 (0x1000@70, 0x5000@90)", got)
	}

	if e, ok := m.earliest(60); !ok || e != 70 {
		t.Fatalf("earliest = (%d, %v), want (70, true)", e, ok)
	}
}

func TestMSHRFileCoalesce(t *testing.T) {
	// A stale entry (completion in the past) is still found by find and
	// refreshable by reserve — matching the old map, where entries
	// persisted until a prune touched them.
	m := newMSHRFile(2)
	m.reserve(0x1000, 0, 5, 2)
	if _, ok := m.inFlight(0x1000, 10); ok {
		t.Fatal("completed entry must not report in-flight")
	}
	if !m.reserve(0x1000, 10, 20, 2) {
		t.Fatal("re-reserve of stale entry must coalesce onto its slot")
	}
	if got := m.prune(10); got != 1 {
		t.Fatalf("coalesced reserve grew the file to %d entries, want 1", got)
	}
}

func TestMSHRFileOpsDoNotAllocate(t *testing.T) {
	m := newMSHRFile(8)
	cycle := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			m.reserve(mem.Addr(i)<<6, cycle, cycle+100, 8)
		}
		m.inFlight(0x40, cycle)
		m.earliest(cycle)
		m.prune(cycle + 50)
		cycle += 60
	})
	if avg != 0 {
		t.Errorf("MSHR file operations allocate %.3f allocs/cycle, want 0", avg)
	}
}

// mapMSHR is the cache's previous map-backed implementation, kept here
// verbatim as the behavioural reference for the array file.
type mapMSHR struct {
	inflight map[mem.Addr]uint64
}

func (c *mapMSHR) prune(now uint64) int {
	busy := 0
	for l, done := range c.inflight {
		if done <= now {
			delete(c.inflight, l)
		} else {
			busy++
		}
	}
	return busy
}

func (c *mapMSHR) inFlight(line mem.Addr, now uint64) (uint64, bool) {
	done, ok := c.inflight[line]
	if !ok || done <= now {
		return 0, false
	}
	return done, true
}

func (c *mapMSHR) reserve(line mem.Addr, now, done uint64, limit int) bool {
	if _, held := c.inflight[line]; held {
		c.inflight[line] = done
		return true
	}
	if c.prune(now) >= limit {
		return false
	}
	c.inflight[line] = done
	return true
}

func (c *mapMSHR) earliest(now uint64) (uint64, bool) {
	best := ^uint64(0)
	found := false
	for _, done := range c.inflight {
		if done > now && done < best {
			best = done
			found = true
		}
	}
	return best, found
}

// TestMSHRFileMatchesMap drives both implementations through the same
// random workload and requires identical observable behaviour at every
// step: reserve outcomes, in-flight lookups, busy counts and earliest
// completions.
func TestMSHRFileMatchesMap(t *testing.T) {
	const capacity = 16
	rng := rand.New(rand.NewSource(42))
	arr := newMSHRFile(capacity)
	ref := &mapMSHR{inflight: make(map[mem.Addr]uint64, capacity*2)}

	now := uint64(0)
	for step := 0; step < 200_000; step++ {
		now += uint64(rng.Intn(30))
		line := mem.Addr(rng.Intn(64)) << 6 // small pool forces coalescing
		switch rng.Intn(4) {
		case 0: // reserve, demand or prefetch limit
			limit := capacity
			if rng.Intn(2) == 0 {
				limit--
			}
			done := now + uint64(rng.Intn(400))
			got, want := arr.reserve(line, now, done, limit), ref.reserve(line, now, done, limit)
			if got != want {
				t.Fatalf("step %d: reserve(%#x, now=%d) = %v, map says %v", step, line, now, want, got)
			}
		case 1:
			gd, gok := arr.inFlight(line, now)
			wd, wok := ref.inFlight(line, now)
			if gd != wd || gok != wok {
				t.Fatalf("step %d: inFlight(%#x) = (%d,%v), map says (%d,%v)", step, line, gd, gok, wd, wok)
			}
		case 2:
			if got, want := arr.prune(now), ref.prune(now); got != want {
				t.Fatalf("step %d: busy = %d, map says %d", step, got, want)
			}
		case 3:
			ge, gok := arr.earliest(now)
			we, wok := ref.earliest(now)
			if ge != we || gok != wok {
				t.Fatalf("step %d: earliest = (%d,%v), map says (%d,%v)", step, ge, gok, we, wok)
			}
		}
	}
}

// TestMSHRLaterReservePrunesEarlierBusy pins today's behaviour: a
// reservation at a later cycle prunes entries that are still busy at
// an earlier cycle, so probes back at that earlier cycle no longer see
// their occupancy or their lines in flight. The simulator hits this
// when a walk reserves at the next level at now+latency: later
// requests of the same issue pass then see that level as of the later
// cycle (docs/simulator.md, "Caches").
func TestMSHRLaterReservePrunesEarlierBusy(t *testing.T) {
	c := New(Config{Name: "M", Sets: 1, Ways: 1, MSHRs: 4})
	for _, r := range []struct {
		line mem.Addr
		done uint64
	}{{0x1000, 10}, {0x2000, 10}, {0x3000, 100}} {
		if !c.ReserveMSHR(r.line, 0, r.done, true) {
			t.Fatalf("reserve %#x failed", r.line)
		}
	}
	if got := c.MSHRBusy(5); got != 3 {
		t.Fatalf("busy at 5 = %d, want 3", got)
	}
	if !c.ReserveMSHR(0x4000, 12, 200, false) {
		t.Fatal("reserve at cycle 12 failed")
	}
	if got := c.MSHRBusy(5); got != 2 {
		t.Errorf("busy at 5 after a reserve at 12 = %d, want 2 (the two entries done at 10 are gone)", got)
	}
	if _, ok := c.InFlight(0x1000, 5); ok {
		t.Error("line done at 10 reads in flight at 5 after the prune at 12; the pinned behaviour has changed")
	}
}
