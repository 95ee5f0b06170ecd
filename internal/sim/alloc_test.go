package sim_test

import (
	"runtime"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/cache"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// Registry-wide allocation pins. TestStepDoesNotAllocate covers the
// simulator's own step with pmp and nop; these tests cover every
// registered prefetcher through Machine.Run, so a per-access
// allocation in any design's Train, IssueInto, OnFill or OnEvict shows
// up as mallocs that grow with the trace length. Neither test may call
// t.Parallel: runtime.MemStats.Mallocs counts the whole process.

// allocRecords is N: each run pair simulates the first N and the first
// 2N records of one trace, and the difference is the cost of N extra
// records with setup, run bookkeeping and result assembly cancelled out.
const allocRecords = 30_000

// runMallocs returns the mallocs of one single-core Machine.Run over
// the first records records of sp, excluding construction.
func runMallocs(name string, sp trace.Spec, records int) uint64 {
	cfg := bench.QuickScale().Config()
	cfg.Measure = 0
	m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{bench.NewPrefetcher(name)}, nil, false)
	src := []trace.Source{sp.New(records)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run(src)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestEveryPrefetcherSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 90k records per prefetcher and trace")
	}
	var specs []trace.Spec
	for _, name := range []string{"spec06.stream-0", "ligra.graph-200", "parsec.mix-300"} {
		sp, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("no trace %s", name)
		}
		specs = append(specs, sp)
	}
	for _, name := range bench.Names() {
		for _, sp := range specs {
			short := runMallocs(name, sp, allocRecords)
			long := runMallocs(name, sp, 2*allocRecords)
			extra := int64(long) - int64(short)
			t.Logf("%s on %s: %d extra mallocs", name, sp.Name, extra)
			// Fewer than one malloc per 1,000 extra records.
			if extra*1000 >= allocRecords {
				t.Errorf("%s on %s: %d extra mallocs over %d extra records (%.2f per 1,000), want < 1 per 1,000",
					name, sp.Name, extra, allocRecords, float64(extra)*1000/allocRecords)
			}
		}
	}
}

// TestNewPrefetcherAllocs bounds construction: a design's tables are a
// handful of flat arrays, not one object per row. The largest today is
// PMP's, at 24 allocations. The count is averaged over 10 runs, so a
// stray runtime allocation is not charged to one design.
func TestNewPrefetcherAllocs(t *testing.T) {
	const maxAllocs = 24
	for _, name := range bench.Names() {
		allocs := testing.AllocsPerRun(10, func() { bench.NewPrefetcher(name) })
		t.Logf("%s: %.0f allocations", name, allocs)
		if allocs > maxAllocs {
			t.Errorf("bench.NewPrefetcher(%q) allocates %.0f objects, want <= %d", name, allocs, maxAllocs)
		}
	}
}

// TestNewMachineAtAllocs pins construction: every cache is a handful of
// flat arrays, so building a machine costs a fixed number of objects
// however large its caches are.
func TestNewMachineAtAllocs(t *testing.T) {
	nops := func(n int) []prefetch.Prefetcher {
		pfs := make([]prefetch.Prefetcher, n)
		for i := range pfs {
			pfs[i] = prefetch.Nop{}
		}
		return pfs
	}
	cfg := bench.DefaultScale().Config()
	one := nops(1)
	if got := testing.AllocsPerRun(10, func() { sim.NewMachineAt(cfg, one, nil, false) }); got > 39 {
		t.Errorf("NewMachineAt with one core allocates %.0f objects, want <= 39", got)
	}
	cfg4 := cfg
	cfg4.DRAM.Channels = 2
	four := nops(4)
	if got := testing.AllocsPerRun(10, func() { sim.NewMachineAt(cfg4, four, nil, true) }); got > 116 {
		t.Errorf("NewMachineAt with four cores allocates %.0f objects, want <= 116", got)
	}
	if got := testing.AllocsPerRun(10, func() { cache.New(cfg.LLC) }); got > 5 {
		t.Errorf("cache.New allocates %.0f objects, want <= 5", got)
	}
}
