// Command pmpsim runs a single simulation: one trace (one of the 125
// synthetic suite traces by name, or a .pmpt trace file) against one
// prefetcher, and prints the measured result.
//
// Usage:
//
//	pmpsim -pf pmp -trace spec06.stream-0 -records 500000
//	pmpsim -pf bingo -file trace.pmpt
//	pmpsim -list-traces | head
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmp/internal/analysis"
	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/prof"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

func main() {
	pfName := flag.String("pf", "pmp", "prefetcher: a registry name (none, bingo, pmp, ...) or a variant grammar name (pmp-tw8, designb-32w, pmp-0.5-0.15, ...)")
	traceName := flag.String("trace", "spec06.stream-0", "suite trace name (see -list-traces)")
	file := flag.String("file", "", "trace file path (overrides -trace)")
	records := flag.Int("records", 500_000, "records to generate for suite traces")
	machineConfig := machineFlags(flag.CommandLine)
	llcpf := flag.String("llcpf", "", "additionally attach a prefetcher at the LLC (trains on LLC accesses, fills LLC)")
	baseline := flag.Bool("baseline", false, "also run the non-prefetching baseline and report NIPC")
	traceLifecycle := flag.Bool("trace-lifecycle", false, "track every prefetch from issue to resolution and report timely/late/useless/redundant counts with fill-to-use slack")
	lifecycleJSONL := flag.String("lifecycle-jsonl", "", "write one JSON object per resolved prefetch lifecycle to this file (implies -trace-lifecycle)")
	topRegions := flag.Int("lifecycle-regions", 3, "hottest 4KB regions to list per prefetcher in the lifecycle report")
	listTraces := flag.Bool("list-traces", false, "list suite trace names and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpsim:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *listTraces {
		for _, sp := range trace.Suite() {
			fmt.Printf("%-24s %-8s %s MPKI class\n", sp.Name, sp.Family, sp.Class)
		}
		return
	}

	cfg, err := machineConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpsim:", err)
		os.Exit(2)
	}
	src, err := openSource(*file, *traceName, *records)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	pf, err := buildVariant(*pfName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpsim:", err)
		os.Exit(2)
	}
	var attach []sim.AttachSpec
	if *llcpf != "" {
		lp, err := buildVariant(*llcpf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpsim:", err)
			os.Exit(2)
		}
		// One core, so New runs once and the instance is never shared.
		attach = []sim.AttachSpec{{Level: cfg.HierarchyDepth() - 1, New: func() prefetch.Prefetcher { return lp }}}
	}
	m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{pf}, attach, false)
	if *traceLifecycle || *lifecycleJSONL != "" {
		sink, flush, err := lifecycleSink(*lifecycleJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpsim:", err)
			os.Exit(1)
		}
		m.EnableLifecycleTracing(sink)
		defer flush()
	}
	res := m.Run([]trace.Source{src})[0]
	printResult(res)
	for _, report := range analysis.Timeliness(res, *topRegions) {
		fmt.Print(report)
	}

	if *baseline {
		none := []prefetch.Prefetcher{bench.NewPrefetcher(bench.NameNone)}
		base := sim.NewMachineAt(cfg, none, nil, false).Run([]trace.Source{src})[0]
		fmt.Printf("\nbaseline IPC %.4f -> NIPC %.4f, NMT %.1f%%\n",
			base.IPC(), res.IPC()/base.IPC(),
			100*float64(res.DRAM.Requests)/float64(base.DRAM.Requests))
	}
}

// machineFlags registers the flags that shape the simulated machine on
// fs. The function it returns builds the configuration they describe
// and validates it, so a bad value (an LLC size that is not a power of
// two, a zero bandwidth) is an error rather than a panic in
// sim.NewMachineAt.
func machineFlags(fs *flag.FlagSet) func() (sim.Config, error) {
	warmup := fs.Uint64("warmup", 200_000, "warm-up instructions")
	measure := fs.Uint64("measure", 0, "measured instructions (0 = rest of trace)")
	mtps := fs.Int("bandwidth", 3200, "DRAM transfer rate in MT/s")
	llcMB := fs.Int("llc", 2, "LLC size in MB")
	nonInclusive := fs.Bool("noninclusive", false, "make the LLC non-inclusive (no back-invalidation), as in ChampSim's default")
	noL2 := fs.Bool("no-l2", false, "run a 2-level hierarchy (private L1D directly over the LLC)")
	return func() (sim.Config, error) {
		cfg := sim.DefaultConfig().WithBandwidth(*mtps).WithLLCMB(*llcMB)
		cfg.Warmup = *warmup
		cfg.Measure = *measure
		cfg.NonInclusiveLLC = *nonInclusive
		if *noL2 {
			cfg.Levels = []sim.LevelSpec{
				{Cache: cfg.L1D},
				{Cache: cfg.LLC, Shared: true, Inclusive: !*nonInclusive},
			}
		}
		return cfg, cfg.Validate()
	}
}

// buildVariant resolves a -pf/-llcpf value through the full variant
// grammar — registry names plus parameterized experiment variants like
// "pmp-tw8" or "designb-32w" — and constructs the prefetcher.
func buildVariant(name string) (prefetch.Prefetcher, error) {
	v, err := bench.ParseVariant(name)
	if err != nil {
		return nil, fmt.Errorf("%w (known names: %s; plus variants like pmp-tw8, designb-32w, pmp-0.5-0.15)",
			err, strings.Join(bench.Names(), ", "))
	}
	return bench.BuildVariant(v)
}

// lifecycleSink returns the lifecycle event sink (nil when no JSONL
// path was given — aggregates only) plus a flush/close function.
func lifecycleSink(path string) (func(sim.LifecycleEvent), func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sink := func(ev sim.LifecycleEvent) {
		if err := enc.Encode(ev); err != nil {
			fmt.Fprintln(os.Stderr, "pmpsim: lifecycle export:", err)
			os.Exit(1)
		}
	}
	flush := func() {
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpsim: lifecycle export:", err)
			os.Exit(1)
		}
	}
	return sink, flush, nil
}

func openSource(file, name string, records int) (trace.Source, error) {
	if file != "" {
		// Lazy streaming source: records decode on demand instead of
		// materializing the whole trace up front. The process exit
		// releases the handle; simulation replays need the source alive
		// for its whole lifetime anyway.
		return trace.OpenFile(file)
	}
	if sp, ok := trace.ByName(name); ok {
		return sp.New(records), nil
	}
	return nil, fmt.Errorf("pmpsim: unknown trace %q (try -list-traces)", name)
}

func printResult(r sim.Result) {
	fmt.Printf("trace       %s\nprefetcher  %s\n", r.Trace, r.Prefetcher)
	fmt.Printf("instructions %d, cycles %d, IPC %.4f, LLC MPKI %.2f\n",
		r.Instructions, r.Cycles, r.IPC(), r.MPKI())
	fmt.Printf("L1D: %d accesses, %d misses, useful/useless prefetch %d/%d (acc %.1f%%), late %d\n",
		r.L1D.DemandAccesses, r.L1D.DemandMisses,
		r.L1D.UsefulPrefetch, r.L1D.UselessPrefetx, 100*r.L1D.Accuracy(), r.L1D.LatePrefetch)
	fmt.Printf("L2C: %d misses, useful/useless prefetch %d/%d (acc %.1f%%)\n",
		r.L2C.DemandMisses, r.L2C.UsefulPrefetch, r.L2C.UselessPrefetx, 100*r.L2C.Accuracy())
	fmt.Printf("LLC: %d misses, useful/useless prefetch %d/%d (acc %.1f%%)\n",
		r.LLC.DemandMisses, r.LLC.UsefulPrefetch, r.LLC.UselessPrefetx, 100*r.LLC.Accuracy())
	fmt.Printf("DRAM: %d requests (%d demand, %d prefetch)\n",
		r.DRAM.Requests, r.DRAM.DemandRequests, r.DRAM.PrefetchRequests)
	fmt.Printf("prefetches issued: L1D %d, L2C %d, LLC %d (dropped: %d filtered, %d no-slot)\n",
		r.PF.Issued[1], r.PF.Issued[2], r.PF.Issued[3], r.PF.DroppedPQ, r.PF.DroppedMSH)
}
