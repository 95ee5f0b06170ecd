package main

import "pmp/internal/bench"

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit, help string
	// extra marks a per-layer metric printed in the report but left out
	// of the result line: it is a timing that exists on one workload only.
	extra bool
}

// endToEnd are the untraced metrics, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", help: "median time to build a pass's inputs (traces, .pmpt files, store)"},
	{name: "wall_s", unit: "s", help: "lower quartile of the passes' timed regions; sweep-lineup: makespan through Close"},
	{name: "sim_minstr_per_s", unit: "Minstr/s", help: "measured instructions, all runs and cores, per second of wall_s"},
	{name: "sweep_jobs_per_s", unit: "jobs/s", help: "simulation jobs (one trace or mix with one prefetcher) per second of wall_s"},
	{name: "allocs_per_access", unit: "allocs", help: "heap mallocs in the timed region per measured demand access"},
	{name: "peak_rss_mb", unit: "MB", help: "peak resident memory of the process"},
	{name: "nipc_geomean", unit: "ratio", help: "geomean per-core IPC(prefetcher)/IPC(none) on the same trace or mix"},
}

// perLayer are the traced metrics, by layer.
var perLayer = []metricSpec{
	{name: "trace.records", unit: "count", help: "records delivered to Machine.Run"},
	{name: "trace.wraps", unit: "count", help: "Source resets during replay"},
	{name: "trace.next_ns", unit: "ns", help: "host time per Source.Next"},
	{name: "trace.gen_ns_per_record", unit: "ns", help: "generator time per record, timed alone"},

	{name: "prefetch.train_calls", unit: "count", help: "Train calls"},
	{name: "prefetch.issue_calls", unit: "count", help: "IssueInto calls"},
	{name: "prefetch.requests", unit: "count", help: "requests IssueInto returned"},
	{name: "prefetch.requeues", unit: "count", help: "Requeue calls"},
	{name: "prefetch.fill_events", unit: "count", help: "OnFill calls"},
	{name: "prefetch.evict_events", unit: "count", help: "OnEvict calls"},
	{name: "prefetch.train_ns", unit: "ns", help: "host time per Train"},
	{name: "prefetch.issue_ns", unit: "ns", help: "host time per IssueInto"},
	{name: "prefetch.busy_frac", unit: "ratio", help: "prefetcher host time / sim.run_s"},
	{name: "prefetch.admit_frac", unit: "ratio", help: "issued / (issued + dropped as redundant + dropped for MSHRs)"},
	{name: "prefetch.accuracy", unit: "ratio", help: "useful / (useful + useless) prefetched lines, all levels"},
	{name: "prefetch.late_frac", unit: "ratio", help: "late / useful prefetched lines, all levels"},
	{name: "core.patterns_merged", unit: "count", help: "PMP patterns merged"},
	{name: "core.predictions", unit: "count", help: "PMP predictions"},
	{name: "core.targets_queued", unit: "count", help: "PMP prefetch targets queued"},
	{name: "core.halvings", unit: "count", help: "PMP counter-vector halvings"},

	{name: "sim.build_ms", unit: "ms", help: "NewMachineAt plus prefetcher construction, per pass"},
	{name: "sim.run_s", unit: "s", help: "Machine.Run, per pass"},
	{name: "sim.accesses", unit: "count", help: "demand accesses simulated, warm-up included"},
	{name: "sim.instructions", unit: "count", help: "measured instructions"},
	{name: "sim.self_ns_per_access", unit: "ns", help: "(run - prefetcher - trace time) per access"},

	{name: "cache.l1d.accesses", unit: "count", help: "measured L1D demand accesses"},
	{name: "cache.l1d.miss_frac", unit: "ratio", help: "L1D demand misses / accesses"},
	{name: "cache.l2c.miss_frac", unit: "ratio", help: "L2C demand misses / accesses"},
	{name: "cache.llc.miss_frac", unit: "ratio", help: "LLC demand misses / accesses"},
	{name: "cache.prefetch_fills", unit: "count", help: "prefetch fills, all levels"},
	{name: "dram.requests", unit: "count", help: "DRAM line requests"},
	{name: "dram.prefetch_frac", unit: "ratio", help: "prefetch share of DRAM requests"},
	{name: "tlb.miss_frac", unit: "ratio", help: "DTLB misses / translations"},
	{name: "cache.l1d.ns_per_access", unit: "ns", help: "L1D Lookup/InFlight/ReserveMSHR/Fill loop, timed alone"},
	{name: "cache.l2c.ns_per_access", unit: "ns", help: "L2C loop over the L1D miss stream, timed alone"},
	{name: "cache.llc.ns_per_access", unit: "ns", help: "LLC loop over the L2C miss stream, timed alone"},
	{name: "dram.ns_per_access", unit: "ns", help: "DRAM Access over the LLC miss stream, timed alone"},
	{name: "tlb.ns_per_translate", unit: "ns", help: "TLB Translate loop, timed alone"},
	{name: "cpu.ns_per_instr", unit: "ns", help: "CPU Dispatch loop per instruction, timed alone"},

	{name: "sweep.jobs", unit: "count", help: "jobs executed"},
	{name: "sweep.deduped", unit: "count", help: "submissions folded onto an existing ticket"},
	{name: "sweep.quarantined", unit: "count", help: "jobs quarantined"},
	{name: "sweep.job_p50_ms", unit: "ms", help: "median job wall time", extra: true},
	{name: "sweep.job_p90_ms", unit: "ms", help: "90th-percentile job wall time", extra: true},
	{name: "sweep.busy_frac", unit: "ratio", help: "sum of job wall / (workers x wall_s)"},
	{name: "sweep.store_mb", unit: "MB", help: "results store size"},
	{name: "sweep.resume_s", unit: "s", help: "resume pass: reopen the store and serve every job", extra: true},
	{name: "sweep.resume_cached_frac", unit: "ratio", help: "resumed jobs served from the store"},

	{name: "bench.tracing_overhead_frac", unit: "ratio", help: "traced wall_s / untraced wall_s - 1"},
}

// simLayers computes the trace, prefetch, core, sim and simulated
// cache/DRAM/TLB metrics of one traced pass.
func simLayers(t *tracer, runs []runResult, bracket float64) map[string]float64 {
	pfNS := t.train.totalNS(bracket) + t.issue.totalNS(bracket) +
		t.fill.totalNS(bracket) + t.evict.totalNS(bracket)
	runNS := float64(t.run.Nanoseconds())
	accesses := float64(t.train.calls) // one Train per simulated demand access
	s := sum(runs)
	m := map[string]float64{
		"trace.records": float64(t.records),
		"trace.wraps":   float64(t.resets - t.runs),
		"trace.next_ns": t.next.perCallNS(bracket),

		"prefetch.train_calls":  float64(t.train.calls),
		"prefetch.issue_calls":  float64(t.issue.calls),
		"prefetch.requests":     float64(t.requests),
		"prefetch.requeues":     float64(t.requeues),
		"prefetch.fill_events":  float64(t.fill.calls),
		"prefetch.evict_events": float64(t.evict.calls),
		"prefetch.train_ns":     t.train.perCallNS(bracket),
		"prefetch.issue_ns":     t.issue.perCallNS(bracket),
		"prefetch.busy_frac":    ratio(pfNS, runNS),
		"prefetch.admit_frac":   ratio(float64(s.issued), float64(s.issued+s.droppedPQ+s.droppedMSH)),
		"prefetch.accuracy":     ratio(float64(s.useful), float64(s.useful+s.useless)),
		"prefetch.late_frac":    ratio(float64(s.late), float64(s.useful)),
		"core.patterns_merged":  float64(t.pmp.PatternsMerged),
		"core.predictions":      float64(t.pmp.Predictions),
		"core.targets_queued":   float64(t.pmp.TargetsQueued),
		"core.halvings":         float64(t.pmp.Halvings),

		"sim.build_ms":           float64(t.build.Nanoseconds()) / 1e6,
		"sim.run_s":              t.run.Seconds(),
		"sim.accesses":           accesses,
		"sim.instructions":       float64(s.instr),
		"sim.self_ns_per_access": ratio(runNS-pfNS-t.next.totalNS(bracket), accesses),

		"cache.l1d.accesses":   float64(s.l1dAccesses),
		"cache.l1d.miss_frac":  ratio(float64(s.l1dMisses), float64(s.l1dAccesses)),
		"cache.l2c.miss_frac":  ratio(float64(s.l2cMisses), float64(s.l2cAccesses)),
		"cache.llc.miss_frac":  ratio(float64(s.llcMisses), float64(s.llcAccesses)),
		"cache.prefetch_fills": float64(s.pfFills),
		"dram.requests":        float64(s.dramRequests),
		"dram.prefetch_frac":   ratio(float64(s.dramPrefetch), float64(s.dramRequests)),
		"tlb.miss_frac":        ratio(float64(s.tlbMisses), float64(s.tlbAccesses)),
	}
	return m
}

// layerRows reports the layers timed alone.
func layerRows(lc *layerCost) map[string]float64 {
	return map[string]float64{
		"trace.gen_ns_per_record": ratio(float64(lc.genNS), float64(lc.genRecords)),
		"cache.l1d.ns_per_access": lc.nsPer(rowL1D),
		"cache.l2c.ns_per_access": lc.nsPer(rowL2C),
		"cache.llc.ns_per_access": lc.nsPer(rowLLC),
		"dram.ns_per_access":      lc.nsPer(rowDRAM),
		"tlb.ns_per_translate":    lc.nsPer(rowTLB),
		"cpu.ns_per_instr":        lc.nsPer(rowCPU),
	}
}

// sweepLayer reports one lineup pass at the sweep layer. The job
// percentiles are present only when enough jobs lie beyond them.
func sweepLayer(sp *sweepPass, wall float64) map[string]float64 {
	var jobNS float64
	for _, ms := range sp.jobWallMS {
		jobNS += ms * 1e6
	}
	m := map[string]float64{
		"sweep.jobs":               float64(sp.fresh.Completed),
		"sweep.deduped":            float64(sp.fresh.Deduped),
		"sweep.quarantined":        float64(sp.fresh.Quarantined),
		"sweep.busy_frac":          ratio(jobNS/1e9, float64(sp.workers)*wall),
		"sweep.store_mb":           float64(sp.storeBytes) / 1e6,
		"sweep.resume_s":           sp.resume.Seconds(),
		"sweep.resume_cached_frac": ratio(float64(sp.resumed.Cached), float64(sp.resumed.Submitted)),
	}
	if v, ok := percentile(sp.jobWallMS, 50); ok {
		m["sweep.job_p50_ms"] = v
	}
	if v, ok := percentile(sp.jobWallMS, 90); ok {
		m["sweep.job_p90_ms"] = v
	}
	return m
}

// simSum totals the simulated statistics of a set of runs. Shared
// structures (the LLC and DRAM) appear in every core's Result of a
// multicore run, so they are counted once per run.
type simSum struct {
	instr                          uint64
	l1dAccesses, l1dMisses         uint64
	l2cAccesses, l2cMisses         uint64
	llcAccesses, llcMisses         uint64
	pfFills, useful, useless, late uint64
	issued, droppedPQ, droppedMSH  uint64
	dramRequests, dramPrefetch     uint64
	tlbAccesses, tlbMisses         uint64
}

func sum(runs []runResult) simSum {
	var s simSum
	for _, r := range runs {
		for i, res := range r.res {
			s.instr += res.Instructions
			s.l1dAccesses += res.L1D.DemandAccesses
			s.l1dMisses += res.L1D.DemandMisses
			s.l2cAccesses += res.L2C.DemandAccesses
			s.l2cMisses += res.L2C.DemandMisses
			s.issued += res.PF.Total()
			s.droppedPQ += res.PF.DroppedPQ
			s.droppedMSH += res.PF.DroppedMSH
			s.tlbAccesses += res.TLB.Accesses
			s.tlbMisses += res.TLB.L1Misses
			levels := []struct{ fills, useful, useless, late uint64 }{
				{res.L1D.PrefetchFills, res.L1D.UsefulPrefetch, res.L1D.UselessPrefetx, res.L1D.LatePrefetch},
				{res.L2C.PrefetchFills, res.L2C.UsefulPrefetch, res.L2C.UselessPrefetx, res.L2C.LatePrefetch},
			}
			if i == 0 {
				s.llcAccesses += res.LLC.DemandAccesses
				s.llcMisses += res.LLC.DemandMisses
				s.dramRequests += res.DRAM.Requests
				s.dramPrefetch += res.DRAM.PrefetchRequests
				levels = append(levels, struct{ fills, useful, useless, late uint64 }{
					res.LLC.PrefetchFills, res.LLC.UsefulPrefetch, res.LLC.UselessPrefetx, res.LLC.LatePrefetch})
			}
			for _, lv := range levels {
				s.pfFills += lv.fills
				s.useful += lv.useful
				s.useless += lv.useless
				s.late += lv.late
			}
		}
	}
	return s
}

// endToEndMetrics computes the untraced metrics from the passes. Every
// pass does the same work (the checker holds each pass's results to the
// first's), so the timing metrics take the passes' lower quartile (see
// passTime) with the first pass's work; set-up time is the median.
func endToEndMetrics(setups []float64, passes []passStats, peakRSSMB float64) map[string]float64 {
	var walls, allocs []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, ratio(float64(p.mallocs), float64(sum(p.runs).l1dAccesses)))
	}
	w := passTime(walls)
	return map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            w,
		"sim_minstr_per_s":  float64(sum(passes[0].runs).instr) / w / 1e6,
		"sweep_jobs_per_s":  float64(passes[0].jobs) / w,
		"allocs_per_access": median(allocs),
		"peak_rss_mb":       peakRSSMB,
		"nipc_geomean":      nipcGeomean(passes[0].runs, bench.NameNone),
	}
}
