// Package dram models main memory as a set of bandwidth-limited
// channels. Each line transfer occupies a channel for a fixed number of
// core cycles derived from the configured transfer rate (MT/s), on top
// of a fixed access latency — enough to reproduce the paper's bandwidth
// sensitivity study (Fig 12a) and the 4-core bandwidth contention that
// motivates PMP-Limit.
package dram

import "fmt"

// Config describes the memory system.
type Config struct {
	Channels      int    // independent channels (1 single-core, 2 4-core)
	TransferMTps  int    // transfer rate in mega-transfers/second (e.g. 3200)
	BusBytes      int    // bytes per transfer (8 for DDR)
	CoreClockMHz  int    // core clock, to convert MT/s into core cycles
	LatencyCycles uint64 // fixed access latency (row access, controller) in core cycles
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("dram: channels must be positive, got %d", c.Channels)
	}
	if c.TransferMTps <= 0 || c.BusBytes <= 0 || c.CoreClockMHz <= 0 {
		return fmt.Errorf("dram: rate/bus/clock must be positive (%d, %d, %d)",
			c.TransferMTps, c.BusBytes, c.CoreClockMHz)
	}
	return nil
}

// TransferCycles returns the channel occupancy of one 64-byte line
// transfer in core cycles (rounded up, minimum 1).
func (c Config) TransferCycles() uint64 {
	transfers := 64 / c.BusBytes
	// cycles per transfer = coreMHz / MT/s; keep integer math exact by
	// scaling: total = transfers * coreMHz / MTps, rounded up.
	n := uint64(transfers) * uint64(c.CoreClockMHz)
	d := uint64(c.TransferMTps)
	cyc := (n + d - 1) / d
	if cyc == 0 {
		cyc = 1
	}
	return cyc
}

// Stats counts memory traffic.
type Stats struct {
	Requests         uint64 // total line requests serviced
	DemandRequests   uint64
	PrefetchRequests uint64
	BusyCycles       uint64 // total channel-busy cycles
}

// DRAM is the memory model. The zero value is unusable; construct with
// New.
//
// The controller gives demand reads priority over prefetches, as real
// memory controllers do: a demand arriving while prefetch transfers are
// queued bypasses the backlog and waits out at most (half of) the
// transfer already occupying the bus; prefetches queue behind
// everything. Without this, an aggressive prefetcher would add its
// whole traffic to every demand's latency, which no real system allows.
type DRAM struct {
	cfg        Config
	demandFree []uint64 // per-channel next-free cycle as seen by demands
	allFree    []uint64 // per-channel next-free cycle including prefetches
	xfer       uint64
	stats      Stats
}

// New constructs the memory model; it panics on invalid configuration.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{
		cfg:        cfg,
		demandFree: make([]uint64, cfg.Channels),
		allFree:    make([]uint64, cfg.Channels),
		xfer:       cfg.TransferCycles(),
	}
}

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Access services one line request issued at `now` on the channel for
// lineID, returning the completion cycle. Demands queue only behind
// other demands (plus the transfer currently on the bus); prefetches
// queue behind all earlier traffic.
func (d *DRAM) Access(lineID uint64, now uint64, demand bool) uint64 {
	ch := int(lineID) % d.cfg.Channels
	var start uint64
	if demand {
		start = max(now, d.demandFree[ch])
		if d.allFree[ch] > start {
			// A prefetch transfer occupies the bus: wait out the
			// residual (half a transfer on average).
			start += d.xfer / 2
		}
		d.demandFree[ch] = start + d.xfer
		if d.allFree[ch] < d.demandFree[ch] {
			d.allFree[ch] = d.demandFree[ch]
		}
	} else {
		start = max(now, d.allFree[ch], d.demandFree[ch])
		d.allFree[ch] = start + d.xfer
	}
	d.stats.Requests++
	if demand {
		d.stats.DemandRequests++
	} else {
		d.stats.PrefetchRequests++
	}
	d.stats.BusyCycles += d.xfer
	return start + d.xfer + d.cfg.LatencyCycles
}
