package cpu

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := (Config{Width: 4, ROB: 352}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{Width: 0, ROB: 1}).Validate(); err == nil {
		t.Error("zero width should be invalid")
	}
	if err := (Config{Width: 1, ROB: 0}).Validate(); err == nil {
		t.Error("zero ROB should be invalid")
	}
}

func TestIdealIPCEqualsWidth(t *testing.T) {
	c := New(Config{Width: 4, ROB: 32})
	c.DispatchNonLoads(400)
	cycles := c.Drain()
	if cycles != 100 {
		t.Errorf("400 non-loads at width 4 took %d cycles, want 100", cycles)
	}
}

func TestLoadLatencyHidesUnderWindow(t *testing.T) {
	// A single long load amid enough independent work retires without
	// stalling dispatch: total time is dominated by the instruction
	// stream, not the load.
	c := New(Config{Width: 1, ROB: 100})
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 50 })
	c.DispatchNonLoads(99) // fills the window exactly
	cycles := c.Drain()
	if cycles != 100 {
		t.Errorf("load fully hidden should give 100 cycles, got %d", cycles)
	}
}

func TestROBFullStallsOnLoad(t *testing.T) {
	// With a tiny ROB, a long load blocks dispatch once the window fills.
	c := New(Config{Width: 1, ROB: 4})
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 1000 })
	c.DispatchNonLoads(10)
	cycles := c.Drain()
	// The 4th subsequent instruction cannot dispatch until the load
	// retires at cycle 1000.
	if cycles < 1000 {
		t.Errorf("ROB-full stall missing: %d cycles", cycles)
	}
	if cycles > 1020 {
		t.Errorf("stall too large: %d cycles", cycles)
	}
}

func TestMLPOverlapsLoads(t *testing.T) {
	// Two independent misses inside the window overlap; with MLP the
	// total is ~one latency, without it ~two.
	run := func(rob int) uint64 {
		c := New(Config{Width: 1, ROB: rob})
		for i := 0; i < 2; i++ {
			c.DispatchLoad(func(issue uint64) uint64 { return issue + 500 })
		}
		return c.Drain()
	}
	overlapped := run(64)
	serialized := run(1)
	if overlapped > 520 {
		t.Errorf("overlapped misses took %d cycles, want ~501", overlapped)
	}
	if serialized < 1000 {
		t.Errorf("serialized misses took %d cycles, want ~1001", serialized)
	}
}

func TestInOrderRetirementBound(t *testing.T) {
	// A short load behind a long load cannot retire first; dispatch past
	// a full ROB waits for the long head.
	c := New(Config{Width: 1, ROB: 2})
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 100 })
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 1 })
	c.DispatchNonLoads(1) // forces retirement of the long head
	if got := c.Cycle(); got < 100 {
		t.Errorf("dispatch proceeded at cycle %d before head retired", got)
	}
}

func TestDispatchedCount(t *testing.T) {
	c := New(Config{Width: 4, ROB: 8})
	c.DispatchNonLoads(5)
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 1 })
	if got := c.Dispatched(); got != 6 {
		t.Errorf("Dispatched = %d, want 6", got)
	}
}

func TestDrainIdempotent(t *testing.T) {
	c := New(Config{Width: 1, ROB: 4})
	c.DispatchLoad(func(issue uint64) uint64 { return issue + 10 })
	first := c.Drain()
	second := c.Drain()
	if second != first {
		t.Errorf("second Drain = %d, want %d", second, first)
	}
}

func TestLoadMinimumOneCycle(t *testing.T) {
	c := New(Config{Width: 1, ROB: 4})
	c.DispatchLoad(func(issue uint64) uint64 { return issue }) // degenerate
	if got := c.Drain(); got != 1 {
		t.Errorf("zero-latency load should still take 1 cycle, got %d", got)
	}
}
