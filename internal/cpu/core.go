// Package cpu models the processor core as an out-of-order window with
// in-order retirement: instructions are dispatched at a fixed width per
// cycle into a ROB; a load completes when the memory hierarchy returns
// its data; when the ROB is full the front end stalls until the oldest
// instruction retires. This reproduces the first-order property that
// matters for prefetcher evaluation — the ROB bounds how many misses can
// overlap (memory-level parallelism) — without simulating a full
// pipeline.
package cpu

import "fmt"

// Config describes the core.
type Config struct {
	Width int // dispatch/retire width (instructions per cycle)
	ROB   int // reorder-buffer entries
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: width must be positive, got %d", c.Width)
	}
	if c.ROB <= 0 {
		return fmt.Errorf("cpu: ROB must be positive, got %d", c.ROB)
	}
	return nil
}

// Core is the window model. Construct with New.
type Core struct {
	cfg   Config
	cycle uint64 // current dispatch cycle
	slot  int    // instructions dispatched in the current cycle

	rob  []uint64 // ring buffer of completion cycles
	head int
	size int

	dispatched uint64
}

// New constructs a core; it panics on invalid configuration.
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg, rob: make([]uint64, cfg.ROB)}
}

// Cycle returns the current dispatch cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Dispatched returns the number of instructions dispatched so far.
func (c *Core) Dispatched() uint64 { return c.dispatched }

// reserve frees a ROB slot if the window is full, stalling the front
// end until the oldest instruction retires. Retirement is in-order: the
// head's completion time lower-bounds the stall target. reserve must run
// before a load consults the memory hierarchy so that the load's issue
// cycle reflects the stall.
func (c *Core) reserve() {
	if c.size < c.cfg.ROB {
		return
	}
	oldest := c.rob[c.head]
	c.head++
	if c.head == len(c.rob) {
		c.head = 0
	}
	c.size--
	if oldest > c.cycle {
		c.cycle = oldest
		c.slot = 0
	}
}

// push inserts a completion time into the reserved tail slot.
func (c *Core) push(done uint64) {
	tail := c.head + c.size
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	c.rob[tail] = done
	c.size++
}

// advance consumes one dispatch slot.
func (c *Core) advance() {
	c.slot++
	if c.slot >= c.cfg.Width {
		c.slot = 0
		c.cycle++
	}
	c.dispatched++
}

// DispatchNonLoads dispatches n single-cycle non-memory instructions.
func (c *Core) DispatchNonLoads(n int) {
	for i := 0; i < n; i++ {
		c.reserve()
		c.push(c.cycle + 1)
		c.advance()
	}
}

// DispatchLoad dispatches one load. The memory hierarchy is consulted
// through complete, which receives the load's issue cycle (after any
// ROB-full stall) and must return its data-ready cycle.
func (c *Core) DispatchLoad(complete func(issue uint64) uint64) {
	c.reserve()
	done := complete(c.cycle)
	if done < c.cycle+1 {
		done = c.cycle + 1
	}
	c.push(done)
	c.advance()
}

// Drain retires every in-flight instruction and returns the final cycle
// count: the time at which the last instruction retires.
func (c *Core) Drain() uint64 {
	final := c.cycle
	for i := 0; i < c.size; i++ {
		idx := c.head + i
		if idx >= len(c.rob) {
			idx -= len(c.rob)
		}
		if c.rob[idx] > final {
			final = c.rob[idx]
		}
	}
	c.head, c.size = 0, 0
	c.cycle = final
	c.slot = 0
	return final
}
