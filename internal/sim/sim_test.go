package sim

import (
	"reflect"
	"testing"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/nextline"
	"pmp/internal/trace"
)

// quickConfig returns a configuration sized for fast tests.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Warmup = 10_000
	return cfg
}

// newSingle builds a one-core machine that ends with its trace.
func newSingle(cfg Config, pf prefetch.Prefetcher) *Machine {
	return NewMachineAt(cfg, []prefetch.Prefetcher{pf}, nil, false)
}

// runSingle simulates one trace on a fresh one-core machine.
func runSingle(cfg Config, pf prefetch.Prefetcher, src trace.Source) Result {
	return newSingle(cfg, pf).Run([]trace.Source{src})[0]
}

func streamTrace(n int) trace.Source {
	p := trace.DefaultStreamParams()
	p.Streams = 2
	p.WorkingSet = 8 << 20
	return trace.NewStream("stream", 1, n, p)
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Table IV geometry sanity.
	c := DefaultConfig()
	if c.L1D.SizeBytes() != 48*1024 {
		t.Errorf("L1D = %d bytes, want 48KB", c.L1D.SizeBytes())
	}
	if c.L2C.SizeBytes() != 512*1024 {
		t.Errorf("L2C = %d bytes, want 512KB", c.L2C.SizeBytes())
	}
	if c.LLC.SizeBytes() != 2*1024*1024 {
		t.Errorf("LLC = %d bytes, want 2MB", c.LLC.SizeBytes())
	}
}

func TestConfigValidateRejects(t *testing.T) {
	c := DefaultConfig()
	c.L1D.Sets = 0
	if err := c.Validate(); err == nil {
		t.Error("bad L1D accepted")
	}
	c = DefaultConfig()
	c.L2C.Sets = 16 // smaller than L1D
	if err := c.Validate(); err == nil {
		t.Error("non-monotonic hierarchy accepted")
	}
	c = DefaultConfig()
	c.DRAM.Channels = 0
	if err := c.Validate(); err == nil {
		t.Error("bad DRAM accepted")
	}
	c = DefaultConfig()
	c.Core.Width = 0
	if err := c.Validate(); err == nil {
		t.Error("bad core accepted")
	}
}

func TestConfigSweepHelpers(t *testing.T) {
	c := DefaultConfig().WithLLCMB(8)
	if c.LLC.SizeBytes() != 8*1024*1024 {
		t.Errorf("WithLLCMB(8) = %d bytes", c.LLC.SizeBytes())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("8MB config invalid: %v", err)
	}
	c = DefaultConfig().WithBandwidth(800)
	if c.DRAM.TransferMTps != 800 {
		t.Error("WithBandwidth did not apply")
	}
}

func TestBaselineRunProducesPlausibleResult(t *testing.T) {
	res := runSingle(quickConfig(), prefetch.Nop{}, streamTrace(50_000))
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	ipc := res.IPC()
	if ipc <= 0 || ipc > 4 {
		t.Errorf("IPC = %v, want in (0, 4]", ipc)
	}
	if res.L1D.DemandAccesses == 0 {
		t.Error("no demand accesses recorded")
	}
	if res.DRAM.Requests == 0 {
		t.Error("a streaming working set beyond LLC must reach DRAM")
	}
	if res.Prefetcher != "none" || res.Trace != "stream" {
		t.Errorf("labels = %q/%q", res.Prefetcher, res.Trace)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	r1 := runSingle(quickConfig(), prefetch.Nop{}, streamTrace(30_000))
	r2 := runSingle(quickConfig(), prefetch.Nop{}, streamTrace(30_000))
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("identical runs differ:\n%+v\n%+v", r1, r2)
	}
}

func TestPMPBeatsBaselineOnStreams(t *testing.T) {
	tr := streamTrace(120_000)
	base := runSingle(quickConfig(), prefetch.Nop{}, tr)
	withPMP := runSingle(quickConfig(), core.New(core.DefaultConfig()), tr)

	if withPMP.IPC() <= base.IPC() {
		t.Errorf("PMP IPC %.3f should beat baseline %.3f on streams",
			withPMP.IPC(), base.IPC())
	}
	if withPMP.L1D.DemandMisses >= base.L1D.DemandMisses {
		t.Errorf("PMP misses %d should undercut baseline %d",
			withPMP.L1D.DemandMisses, base.L1D.DemandMisses)
	}
	if withPMP.PF.Total() == 0 {
		t.Error("PMP issued no prefetches")
	}
	if withPMP.L1D.UsefulPrefetch == 0 {
		t.Error("no useful prefetches on a pure stream")
	}
}

func TestPrefetchTrafficCounted(t *testing.T) {
	tr := streamTrace(120_000)
	base := runSingle(quickConfig(), prefetch.Nop{}, tr)
	withPMP := runSingle(quickConfig(), core.New(core.DefaultConfig()), tr)
	if withPMP.DRAM.PrefetchRequests == 0 {
		t.Error("prefetches should reach DRAM")
	}
	// NMT > 1: prefetching adds traffic (paper §V-D).
	nmt := float64(withPMP.DRAM.Requests) / float64(base.DRAM.Requests)
	if nmt <= 1.0 {
		t.Errorf("NMT = %.2f, want > 1", nmt)
	}
}

func TestRandomTraceGainsLittle(t *testing.T) {
	p := trace.DefaultPointerChaseParams()
	p.HotProb = 0
	mk := func() trace.Source { return trace.NewPointerChase("chase", 3, 80_000, p) }
	base := runSingle(quickConfig(), prefetch.Nop{}, mk())
	withPMP := runSingle(quickConfig(), core.New(core.DefaultConfig()), mk())
	// Pure random accesses are unprefetchable: PMP cannot win, and its
	// aggressive low-level prefetching (the paper's own NMT is ~200%)
	// costs bandwidth on an already saturated channel, so some loss is
	// expected — but it must stay bounded.
	ratio := withPMP.IPC() / base.IPC()
	if ratio < 0.50 || ratio > 1.10 {
		t.Errorf("NIPC on random trace = %.2f, want bounded near/below 1", ratio)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	// A trace long enough to warm up reports only post-warm-up
	// activity: the counters reset at the boundary, so the measured
	// demand accesses must fall well short of the trace's total loads.
	cfg := quickConfig()
	res := runSingle(cfg, prefetch.Nop{}, streamTrace(20_000))
	if res.L1D.DemandAccesses == 0 {
		t.Fatal("no post-warm-up accesses recorded")
	}
	if res.L1D.DemandAccesses >= 20_000 {
		t.Errorf("warm-up accesses leaked into stats: %d demand accesses for a 20k-load trace",
			res.L1D.DemandAccesses)
	}
}

// TestShortTraceStillMeasured is the regression test for the
// short-trace fallback: a trace that ends before cfg.Warmup used to
// report measured Instructions/Cycles but all-zero cache/DRAM/TLB
// stats, because statistics were only switched on at the warm-up
// boundary. Statistics now run from cycle 0 (and reset at the
// boundary), so the whole-trace measurement is internally consistent.
func TestShortTraceStillMeasured(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 1 << 40 // never leaves warm-up
	res := runSingle(cfg, prefetch.Nop{}, streamTrace(20_000))
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("short trace not measured: %+v", res)
	}
	if res.L1D.DemandAccesses != 20_000 {
		t.Errorf("L1D demand accesses = %d, want 20000 (one per load)", res.L1D.DemandAccesses)
	}
	if res.TLB.Accesses == 0 {
		t.Error("TLB stats empty for a short trace")
	}
	if res.DRAM.Requests == 0 {
		t.Error("DRAM stats empty for a short trace (working set exceeds the LLC)")
	}
}

func TestMeasureWindowStopsEarly(t *testing.T) {
	cfg := quickConfig()
	cfg.Measure = 5_000
	res := runSingle(cfg, prefetch.Nop{}, streamTrace(200_000))
	if res.Instructions < 5_000 || res.Instructions > 6_000 {
		t.Errorf("measured %d instructions, want ~5000", res.Instructions)
	}
}

func TestMPKIReportedForIrregularTrace(t *testing.T) {
	p := trace.DefaultPointerChaseParams()
	p.HotProb = 0
	res := runSingle(quickConfig(), prefetch.Nop{}, trace.NewPointerChase("chase", 3, 80_000, p))
	if res.MPKI() < 5 {
		t.Errorf("irregular trace MPKI = %.1f, want > 5 (paper's floor)", res.MPKI())
	}
}

func TestMulticoreHomogeneous(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 5_000
	cfg.Measure = 20_000
	cfg.DRAM.Channels = 2
	pfs := make([]prefetch.Prefetcher, 4)
	srcs := make([]trace.Source, 4)
	for i := range pfs {
		pfs[i] = core.New(core.DefaultConfig())
		srcs[i] = trace.NewStream("s", int64(i+1), 200_000, trace.DefaultStreamParams())
	}
	m := NewMachineAt(cfg, pfs, nil, true)
	results := m.Run(srcs)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Instructions < cfg.Measure {
			t.Errorf("core %d measured %d instructions, want >= %d", i, r.Instructions, cfg.Measure)
		}
		if r.IPC() <= 0 {
			t.Errorf("core %d IPC = %v", i, r.IPC())
		}
	}
}

func TestMulticoreContentionSlowsCores(t *testing.T) {
	// One core alone vs four cores sharing LLC+DRAM on the same trace:
	// per-core IPC must drop under contention.
	cfg := quickConfig()
	cfg.Warmup = 5_000
	cfg.Measure = 20_000

	solo := NewMachineAt(cfg, []prefetch.Prefetcher{prefetch.Nop{}}, nil, true)
	soloRes := solo.Run([]trace.Source{streamTrace(200_000)})

	pfs := make([]prefetch.Prefetcher, 4)
	srcs := make([]trace.Source, 4)
	for i := range pfs {
		pfs[i] = prefetch.Nop{}
		srcs[i] = trace.NewStream("s", int64(i+1), 200_000, trace.DefaultStreamParams())
	}
	quad := NewMachineAt(cfg, pfs, nil, true)
	quadRes := quad.Run(srcs)

	if quadRes[0].IPC() >= soloRes[0].IPC() {
		t.Errorf("4-core IPC %.3f should trail solo %.3f (shared DRAM)",
			quadRes[0].IPC(), soloRes[0].IPC())
	}
}

func TestMulticoreShortTraceReplays(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 100
	cfg.Measure = 50_000
	m := NewMachineAt(cfg, []prefetch.Prefetcher{prefetch.Nop{}}, nil, true)
	res := m.Run([]trace.Source{streamTrace(1_000)}) // far shorter than measure
	if res[0].Instructions < cfg.Measure {
		t.Errorf("short trace should replay to fill the window, got %d", res[0].Instructions)
	}
}

func TestBandwidthSweepChangesPerformance(t *testing.T) {
	mk := func(mtps int) float64 {
		cfg := quickConfig().WithBandwidth(mtps)
		return runSingle(cfg, prefetch.Nop{}, streamTrace(80_000)).IPC()
	}
	slow, fast := mk(800), mk(6400)
	if fast <= slow {
		t.Errorf("IPC at 6400MT/s (%.3f) should beat 800MT/s (%.3f)", fast, slow)
	}
}

func TestLLCSweepChangesMisses(t *testing.T) {
	run := func(mb int) uint64 {
		cfg := quickConfig().WithLLCMB(mb)
		// Working set ~4MB: fits in 8MB LLC, thrashes 2MB.
		p := trace.PointerChaseParams{WorkingSet: 4 << 20, HotSet: 1 << 20, HotProb: 0.3, GapMean: 4}
		src := trace.NewPointerChase("c", 9, 80_000, p)
		return runSingle(cfg, prefetch.Nop{}, src).LLC.DemandMisses
	}
	small, big := run(2), run(8)
	if big >= small {
		t.Errorf("8MB LLC misses (%d) should undercut 2MB (%d)", big, small)
	}
}

func TestMulticoreDeterministic(t *testing.T) {
	run := func() []Result {
		cfg := quickConfig()
		cfg.Warmup = 5_000
		cfg.Measure = 15_000
		pfs := make([]prefetch.Prefetcher, 2)
		srcs := make([]trace.Source, 2)
		for i := range pfs {
			pfs[i] = core.New(core.DefaultConfig())
			srcs[i] = trace.NewStream("s", int64(i+1), 100_000, trace.DefaultStreamParams())
		}
		return NewMachineAt(cfg, pfs, nil, true).Run(srcs)
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("core %d results differ across identical runs", i)
		}
	}
}

func TestLLCPrefetcherPlacement(t *testing.T) {
	// An LLC-attached next-line prefetcher on a stream must reduce LLC
	// misses relative to no prefetching, without touching L1 stats.
	mk := func(attach bool) Result {
		cfg := quickConfig()
		var llc []AttachSpec
		if attach {
			llc = []AttachSpec{{Level: cfg.HierarchyDepth() - 1, New: func() prefetch.Prefetcher { return nextline.New(4) }}}
		}
		m := NewMachineAt(cfg, []prefetch.Prefetcher{prefetch.Nop{}}, llc, false)
		return m.Run([]trace.Source{streamTrace(60_000)})[0]
	}
	base := mk(false)
	with := mk(true)
	if with.LLC.DemandMisses >= base.LLC.DemandMisses {
		t.Errorf("LLC prefetcher should cut LLC misses: %d vs %d",
			with.LLC.DemandMisses, base.LLC.DemandMisses)
	}
	if with.L1D.PrefetchFills != 0 {
		t.Errorf("LLC-attached prefetcher must not fill L1D, got %d fills",
			with.L1D.PrefetchFills)
	}
}
