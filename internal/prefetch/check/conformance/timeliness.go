package conformance

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// timelinessMinUsed is the number of used prefetches below which the
// timeliness scenario refuses to judge a prefetcher: a handful of hits
// on an easy stream says nothing about fill timing, and some
// conservative prefetchers legitimately sit out a single-stream
// pattern.
const timelinessMinUsed = 25

// timelinessTrace is a single sequential stream with a wide
// instruction gap between loads: at the default 4-wide core one load
// dispatches every ~500 cycles while a full L1-to-DRAM miss costs
// ~235, so a prefetcher that runs even one line ahead of the demand
// has ample slack to fill in time.
func timelinessTrace() trace.Source {
	const records = 800
	recs := make([]trace.Record, records)
	base := mem.Addr(0x50_0000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400, Addr: base + mem.Addr(i*mem.LineBytes), Gap: 2000}
	}
	return trace.NewTrace("timeliness-stream", recs)
}

func timelinessConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Warmup = 100_000 // ~50 records of training before measurement
	return cfg
}

// RunTimeliness drives a fresh prefetcher through a widely spaced
// sequential stream under the full system model with lifecycle tracing
// enabled, and fails if every prefetch the demand stream consumed was
// still in flight when it was needed. On this trace the demand spacing
// dwarfs the miss path, so an all-late profile means the prefetcher
// issues with no lead time at all — it converts misses into stalls of
// almost the same length and its coverage numbers overstate its value.
func RunTimeliness(t TB, mk func() prefetch.Prefetcher) {
	runTimeliness(t, mk, timelinessConfig())
}

func runTimeliness(t TB, mk func() prefetch.Prefetcher, cfg sim.Config) {
	m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{mk()}, nil, false)
	m.EnableLifecycleTracing(nil)
	res := m.Run([]trace.Source{timelinessTrace()})[0]
	if len(res.Lifecycle) == 0 {
		return // never issued a prefetch; nothing to judge
	}
	if len(res.Lifecycle) != 1 {
		t.Errorf("timeliness: %d lifecycle snapshots, want 1", len(res.Lifecycle))
		return
	}
	total := res.Lifecycle[0].Total
	if total.Used() < timelinessMinUsed {
		return // too quiet on this pattern to judge
	}
	if total.Timely == 0 {
		t.Errorf("timeliness: %s used %d prefetches but none filled before its demand (late %d, avg lateness %.0f cyc)",
			res.Prefetcher, total.Used(), total.Late, total.AvgLateness())
	}
}
