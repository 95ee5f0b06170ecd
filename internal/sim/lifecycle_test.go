package sim

import (
	"sync"
	"testing"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/nextline"
	"pmp/internal/trace"
)

// checkSnapshotConsistent asserts the structural invariants every
// lifecycle snapshot must satisfy.
func checkSnapshotConsistent(t *testing.T, sn LifecycleSnapshot) {
	t.Helper()
	if got := sn.Total.Resolved() + sn.Open; got != sn.Total.Issued {
		t.Errorf("%s: timely %d + late %d + useless %d + open %d != issued %d",
			sn.Prefetcher, sn.Total.Timely, sn.Total.Late, sn.Total.Useless, sn.Open, sn.Total.Issued)
	}
	var perLevel, regions LifecycleStats
	for _, lv := range sn.PerLevel {
		perLevel.add(lv)
	}
	for _, r := range sn.Regions {
		regions.add(r.Stats)
	}
	if perLevel != sn.Total {
		t.Errorf("%s: per-level sum %+v != total %+v", sn.Prefetcher, perLevel, sn.Total)
	}
	if regions != sn.Total {
		t.Errorf("%s: per-region sum %+v != total %+v", sn.Prefetcher, regions, sn.Total)
	}
	for i := 1; i < len(sn.Regions); i++ {
		if sn.Regions[i].Stats.Issued > sn.Regions[i-1].Stats.Issued {
			t.Errorf("%s: regions not sorted by issued count", sn.Prefetcher)
			break
		}
	}
}

func TestLifecycleTracksStreamPrefetches(t *testing.T) {
	var events []LifecycleEvent
	sys := newSingle(quickConfig(), nextline.New(2))
	sys.EnableLifecycleTracing(func(ev LifecycleEvent) { events = append(events, ev) })
	res := sys.Run([]trace.Source{streamTrace(60_000)})[0]

	if len(res.Lifecycle) != 1 {
		t.Fatalf("lifecycle snapshots = %d, want 1", len(res.Lifecycle))
	}
	sn := res.Lifecycle[0]
	if sn.Prefetcher != "nextline" {
		t.Errorf("snapshot prefetcher = %q", sn.Prefetcher)
	}
	checkSnapshotConsistent(t, sn)
	if sn.Total.Issued == 0 {
		t.Fatal("a stream trace must issue prefetches")
	}
	if sn.Total.Used() == 0 {
		t.Error("a stream trace must produce used prefetches")
	}
	if len(sn.Regions) == 0 {
		t.Error("no per-region aggregates recorded")
	}

	// The sink saw one resolution per resolved lifecycle plus redundant
	// drops, plus the open flush at end of run.
	want := sn.Total.Resolved() + sn.Total.Redundant + sn.Open
	if uint64(len(events)) != want {
		t.Errorf("sink saw %d events, want %d", len(events), want)
	}
	for _, ev := range events {
		if ev.Prefetcher != "nextline" {
			t.Fatalf("event attributed to %q", ev.Prefetcher)
		}
		switch ev.Class {
		case "timely":
			if ev.Use < ev.Fill || ev.Fill < ev.Issue {
				t.Fatalf("timely event out of order: %+v", ev)
			}
		case "late":
			if ev.Fill <= ev.Use {
				t.Fatalf("late event must fill after use: %+v", ev)
			}
		case "useless", "redundant", "open":
		default:
			t.Fatalf("unknown class %q", ev.Class)
		}
		if ev.Region != ev.Line&^4095 {
			t.Fatalf("region %#x is not the 4KB base of line %#x", ev.Region, ev.Line)
		}
	}
}

func TestLifecycleAgreesWithCacheStats(t *testing.T) {
	sys := newSingle(quickConfig(), nextline.New(1))
	sys.EnableLifecycleTracing(nil)
	res := sys.Run([]trace.Source{streamTrace(60_000)})[0]
	sn := res.Lifecycle[0]

	// nextline targets L1 only, so its used count must track the L1D's
	// aggregate prefetch accounting over the same window. Prefetches
	// issued during warm-up but used after it are counted by the cache
	// and not the tracker, so allow a small boundary slack.
	l1 := sn.PerLevel[prefetch.LevelL1]
	if l1.Used() > res.L1D.UsefulPrefetch {
		t.Errorf("lifecycle used %d exceeds L1D useful %d", l1.Used(), res.L1D.UsefulPrefetch)
	}
	if res.L1D.UsefulPrefetch-l1.Used() > res.L1D.UsefulPrefetch/100+16 {
		t.Errorf("lifecycle used %d too far below L1D useful %d", l1.Used(), res.L1D.UsefulPrefetch)
	}
	if l1.Late > res.L1D.UsefulPrefetch {
		t.Errorf("late %d exceeds useful %d", l1.Late, res.L1D.UsefulPrefetch)
	}
	if sn.Total.Redundant != res.PF.DroppedPQ {
		t.Errorf("lifecycle redundant %d != DroppedPQ %d", sn.Total.Redundant, res.PF.DroppedPQ)
	}
}

func TestLifecycleTracingOffByDefault(t *testing.T) {
	res := runSingle(quickConfig(), nextline.New(2), streamTrace(30_000))
	if res.Lifecycle != nil {
		t.Errorf("lifecycle recorded without tracing: %+v", res.Lifecycle)
	}
}

func TestLifecycleDeterministic(t *testing.T) {
	run := func() []LifecycleSnapshot {
		sys := newSingle(quickConfig(), core.New(core.DefaultConfig()))
		sys.EnableLifecycleTracing(nil)
		return sys.Run([]trace.Source{streamTrace(40_000)})[0].Lifecycle
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Total != b[i].Total || a[i].Open != b[i].Open {
			t.Errorf("snapshot %d differs:\n%+v\n%+v", i, a[i].Total, b[i].Total)
		}
	}
}

func TestMulticoreLifecycleSumsAcrossCores(t *testing.T) {
	const cores = 2
	cfg := quickConfig()
	cfg.Warmup = 5_000
	cfg.Measure = 15_000
	pfs := make([]prefetch.Prefetcher, cores)
	srcs := make([]trace.Source, cores)
	for i := range pfs {
		pfs[i] = nextline.New(2)
		srcs[i] = trace.NewStream("s", int64(i+1), 100_000, trace.DefaultStreamParams())
	}
	m := NewMachineAt(cfg, pfs, nil, true)
	m.EnableLifecycleTracing(nil)
	results := m.Run(srcs)

	var perCore []LifecycleSnapshot
	var issued uint64
	for i, r := range results {
		if len(r.Lifecycle) != 1 {
			t.Fatalf("core %d: %d snapshots", i, len(r.Lifecycle))
		}
		checkSnapshotConsistent(t, r.Lifecycle[0])
		issued += r.Lifecycle[0].Total.Issued
		perCore = append(perCore, r.Lifecycle[0])
	}
	if issued == 0 {
		t.Fatal("no prefetches issued across cores")
	}

	agg := AggregateLifecycle(perCore)
	if agg.Total.Issued != issued {
		t.Errorf("aggregate issued %d != per-core sum %d", agg.Total.Issued, issued)
	}
	var want LifecycleStats
	for _, sn := range perCore {
		want.add(sn.Total)
	}
	if agg.Total != want {
		t.Errorf("aggregate total %+v != summed %+v", agg.Total, want)
	}
	var regions LifecycleStats
	for _, r := range agg.Regions {
		regions.add(r.Stats)
	}
	if regions != agg.Total {
		t.Errorf("aggregate regions %+v != total %+v", regions, agg.Total)
	}
	// Each core's LifecycleSnapshots must agree with its Run result.
	for i := 0; i < m.NumCores(); i++ {
		if snap := m.Core(i).LifecycleSnapshots(); snap[0].Total != perCore[i].Total {
			t.Errorf("core %d: LifecycleSnapshots %+v != Result %+v", i, snap[0].Total, perCore[i].Total)
		}
	}
}

// TestMulticoreLifecycleInstancesIsolated runs two traced multicore
// simulations concurrently: with per-instance trackers there is no
// shared mutable state, so this must pass under -race.
func TestMulticoreLifecycleInstancesIsolated(t *testing.T) {
	run := func() LifecycleStats {
		cfg := quickConfig()
		cfg.Warmup = 2_000
		cfg.Measure = 8_000
		pfs := []prefetch.Prefetcher{nextline.New(2), nextline.New(2)}
		srcs := []trace.Source{
			trace.NewStream("a", 1, 50_000, trace.DefaultStreamParams()),
			trace.NewStream("b", 2, 50_000, trace.DefaultStreamParams()),
		}
		m := NewMachineAt(cfg, pfs, nil, true)
		m.EnableLifecycleTracing(nil)
		results := m.Run(srcs)
		var sum LifecycleStats
		for _, r := range results {
			for _, sn := range r.Lifecycle {
				sum.add(sn.Total)
			}
		}
		return sum
	}
	var wg sync.WaitGroup
	totals := make([]LifecycleStats, 4)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			totals[i] = run()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(totals); i++ {
		if totals[i] != totals[0] {
			t.Errorf("instance %d diverged: %+v vs %+v", i, totals[i], totals[0])
		}
	}
	if totals[0].Issued == 0 {
		t.Error("no prefetches issued")
	}
}
