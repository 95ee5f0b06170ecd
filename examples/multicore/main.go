// multicore runs a heterogeneous 4-core mix (one trace per MPKI class
// plus a stream) with per-core PMP prefetchers sharing the LLC and two
// DRAM channels — a single-mix slice of the paper's Fig 13.
//
//	go run ./examples/multicore
package main

import (
	"fmt"
	"math"

	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.DRAM.Channels = 2 // Table IV: 8GB, 2 channels for the 4-core runs
	cfg.Warmup = 100_000
	cfg.Measure = 400_000

	// Half-low/half-high MPKI mix (paper Table VII).
	byClass := trace.ByClass(trace.Suite())
	mix := []trace.Spec{
		byClass[trace.LowMPKI][0],
		byClass[trace.LowMPKI][1],
		byClass[trace.HighMPKI][0],
		byClass[trace.HighMPKI][1],
	}
	const records = 300_000

	run := func(pfName string) []sim.Result {
		pfs := make([]prefetch.Prefetcher, 4)
		srcs := make([]trace.Source, 4)
		for i := range pfs {
			pfs[i] = bench.NewPrefetcher(pfName)
			srcs[i] = mix[i].New(records)
		}
		return sim.NewMachineAt(cfg, pfs, nil, true).Run(srcs)
	}

	base := run(bench.NameNone)
	fmt.Println("4-core heterogeneous mix (2 low-MPKI + 2 high-MPKI traces):")
	for _, name := range []string{bench.NamePMP, bench.NamePMPLimit, bench.NameBingo} {
		res := run(name)
		var logSum float64
		fmt.Printf("\n%s:\n", name)
		for i := range res {
			n := res[i].IPC() / base[i].IPC()
			logSum += math.Log(n)
			fmt.Printf("  core %d (%-18s) IPC %.3f -> NIPC %.3f\n",
				i, res[i].Trace, res[i].IPC(), n)
		}
		fmt.Printf("  geomean NIPC %.3f\n", math.Exp(logSum/4))
	}
	fmt.Println("\nPMP-Limit caps low-level prefetch degree at 1, trading coverage")
	fmt.Println("for bandwidth — the paper's answer to 4-core contention (§V-G).")
}
