// Package sim wires the core model, cache hierarchy, DRAM and a
// prefetcher into a trace-driven system simulator, single-core or
// multi-core, configured after the paper's Table IV.
package sim

import (
	"fmt"

	"pmp/internal/cache"
	"pmp/internal/cpu"
	"pmp/internal/dram"
	"pmp/internal/tlb"
)

// LevelSpec describes one level of an explicit cache hierarchy
// (innermost first).
type LevelSpec struct {
	Cache cache.Config

	// Shared marks the level as shared by every core. Shared levels
	// must form a suffix of the hierarchy: once a level is shared,
	// every level below it is too.
	Shared bool

	// Inclusive makes the level inclusive of all inner levels:
	// evicting a line back-invalidates it from every level above it
	// (in every core, for shared levels).
	Inclusive bool
}

// Config describes a simulated system (one core's private hierarchy
// plus the shared LLC/DRAM parameters).
type Config struct {
	Core cpu.Config
	L1D  cache.Config
	L2C  cache.Config
	LLC  cache.Config
	DRAM dram.Config
	TLB  tlb.Config

	// Levels, when non-empty, replaces the classic L1D/L2C/LLC fields
	// with an explicit N-level hierarchy (innermost first, at least 2
	// levels); L1D/L2C/LLC are then ignored. Result reports the
	// innermost level as L1D, the outermost as LLC, and level 1 as L2C
	// when the hierarchy has three or more levels.
	Levels []LevelSpec

	// Warmup is the number of instructions simulated before statistics
	// are reset (the paper uses 50M; scaled runs use less).
	Warmup uint64
	// Measure is the number of instructions measured after warm-up;
	// 0 measures to the end of the trace.
	Measure uint64
}

// DefaultConfig returns the paper's Table IV system: 4GHz 4-wide core
// with a 352-entry ROB, 48KB/12-way L1D (5 cyc), 512KB/8-way L2 (10
// cyc), 2MB/16-way LLC (20 cyc), one 3200 MT/s DRAM channel.
func DefaultConfig() Config {
	return Config{
		Core: cpu.Config{Width: 4, ROB: 352},
		L1D:  cache.Config{Name: "L1D", Sets: 64, Ways: 12, Latency: 5, MSHRs: 16, PQSize: 8},
		L2C:  cache.Config{Name: "L2C", Sets: 1024, Ways: 8, Latency: 10, MSHRs: 32, PQSize: 16},
		LLC:  cache.Config{Name: "LLC", Sets: 2048, Ways: 16, Latency: 20, MSHRs: 64, PQSize: 32},
		DRAM: dram.Config{
			Channels: 1, TransferMTps: 3200, BusBytes: 8,
			// ~50ns row access + controller at 4GHz.
			CoreClockMHz: 4000, LatencyCycles: 200,
		},
		TLB:    tlb.DefaultConfig(),
		Warmup: 200_000,
	}
}

// Resolved returns the configuration with its hierarchy in Levels
// form, innermost first: with no explicit Levels, the classic private
// L1D/L2C over a shared inclusive LLC. A non-inclusive LLC (ChampSim's
// default) is an explicit Levels list with LevelSpec.Inclusive unset.
// The classic fields are cleared, so two descriptions of one machine
// resolve equal; the simulator builds from this form and job identity
// (runspec.RunSpec.ID) hashes it.
func (c Config) Resolved() Config {
	if len(c.Levels) == 0 {
		c.Levels = []LevelSpec{
			{Cache: c.L1D},
			{Cache: c.L2C},
			{Cache: c.LLC, Shared: true, Inclusive: true},
		}
	}
	c.L1D, c.L2C, c.LLC = cache.Config{}, cache.Config{}, cache.Config{}
	return c
}

// WithLLCMB returns the configuration with the LLC resized to the given
// capacity in MB by scaling sets (the paper's Fig 12b sweep enlarges the
// LLC "by increasing the number of LLC sets"). MSHRs and PQ scale with
// capacity as in Table IV (32→128 PQ, 64→256 MSHR for 2→8MB).
func (c Config) WithLLCMB(mb int) Config {
	c.LLC.Sets = 2048 * mb / 2
	c.LLC.MSHRs = 64 * mb / 2
	c.LLC.PQSize = 32 * mb / 2
	return c
}

// WithBandwidth returns the configuration with the DRAM transfer rate
// set to the given MT/s (Fig 12a sweep).
func (c Config) WithBandwidth(mtps int) Config {
	c.DRAM.TransferMTps = mtps
	return c
}

// Validate reports the first configuration error found.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	levels := c.Resolved().Levels
	if len(levels) < 2 {
		return fmt.Errorf("sim: hierarchy needs at least 2 levels, got %d", len(levels))
	}
	if levels[0].Shared {
		return fmt.Errorf("sim: the innermost cache level must be core-private")
	}
	shared := false
	for i, lv := range levels {
		if err := lv.Cache.Validate(); err != nil {
			return err
		}
		if shared && !lv.Shared {
			return fmt.Errorf("sim: shared levels must form a suffix of the hierarchy (level %d is private below a shared level)", i)
		}
		shared = shared || lv.Shared
		if i > 0 && levels[i-1].Cache.SizeBytes() >= lv.Cache.SizeBytes() {
			return fmt.Errorf("sim: hierarchy must grow monotonically (%d bytes at level %d, %d bytes at level %d)",
				levels[i-1].Cache.SizeBytes(), i-1, lv.Cache.SizeBytes(), i)
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return c.TLB.Validate()
}
