package sim

import (
	"pmp/internal/cache"
	"pmp/internal/dram"
	"pmp/internal/prefetch"
	"pmp/internal/tlb"
)

// PrefetchIssueStats counts prefetcher activity at the system level.
type PrefetchIssueStats struct {
	Issued     [4]uint64 // indexed by prefetch.Level
	DroppedPQ  uint64    // request dropped: duplicate or filtered
	DroppedMSH uint64    // request dropped: no prefetch MSHR available
}

// Total returns the total issued prefetches across levels.
func (p PrefetchIssueStats) Total() uint64 {
	return p.Issued[prefetch.LevelL1] + p.Issued[prefetch.LevelL2] + p.Issued[prefetch.LevelLLC]
}

// Result summarizes one measured simulation.
type Result struct {
	Trace      string
	Prefetcher string

	Instructions uint64
	Cycles       uint64

	L1D  cache.Stats
	L2C  cache.Stats
	LLC  cache.Stats
	DRAM dram.Stats
	TLB  tlb.Stats
	PF   PrefetchIssueStats

	// Lifecycle holds one snapshot per prefetcher (the L1D-trained
	// prefetcher, plus the LLC-attached one when present). Nil unless
	// lifecycle tracing was enabled before Run.
	Lifecycle []LifecycleSnapshot
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns LLC demand misses per kilo-instruction (the paper's
// workload classification metric).
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.LLC.DemandMisses) / float64(r.Instructions) * 1000
}
