package bench

import (
	"flag"
	"strings"
	"testing"
)

// The perf suite doubles as the CI regression gate:
//
//	go test ./internal/bench -run TestPerf -perf-out BENCH_default.json -perf-scale default
//	go test ./internal/bench -run TestPerf -perf-compare BENCH_default.json -perf-scale default
//
// Without either flag TestPerf skips, keeping `go test ./...` fast.
var (
	perfOut     = flag.String("perf-out", "", "write a throughput report to this JSON file")
	perfCompare = flag.String("perf-compare", "", "compare throughput against this baseline JSON file")
	perfScale   = flag.String("perf-scale", "default", "perf scale: quick, default or full")
	perfPF      = flag.String("perf-pf", NamePMP, "comma-separated prefetchers to measure")
	perfTol     = flag.Float64("perf-tolerance", 0.10, "allowed fractional throughput regression")
)

func TestPerf(t *testing.T) {
	if *perfOut == "" && *perfCompare == "" {
		t.Skip("perf suite runs only with -perf-out or -perf-compare")
	}
	scale, err := ParseScale(*perfScale)
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Split(*perfPF, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if _, err := BuildVariant(RegistryVariant(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	report := RunPerf(scale, names)
	t.Log("\n" + Perf(report).String())

	if *perfOut != "" {
		if err := WritePerf(*perfOut, report); err != nil {
			t.Fatal(err)
		}
	}
	if *perfCompare != "" {
		baseline, err := ReadPerf(*perfCompare)
		if err != nil {
			t.Fatal(err)
		}
		if baseline.Scale != report.Scale {
			t.Fatalf("baseline scale %q does not match -perf-scale %q", baseline.Scale, report.Scale)
		}
		for _, reg := range ComparePerf(baseline, report, *perfTol) {
			t.Error(reg)
		}
	}
}

func TestComparePerf(t *testing.T) {
	base := PerfReport{Scale: "default", Results: []PerfResult{
		{Prefetcher: "pmp", AccessesPerSec: 1000, AllocsPerAccess: 0.01},
		{Prefetcher: "bingo", AccessesPerSec: 500, AllocsPerAccess: 2.0},
	}}

	same := PerfReport{Scale: "default", Results: []PerfResult{
		{Prefetcher: "pmp", AccessesPerSec: 950, AllocsPerAccess: 0.02},
	}}
	if regs := ComparePerf(base, same, 0.10); len(regs) != 0 {
		t.Errorf("within tolerance, got regressions %q", regs)
	}

	slow := PerfReport{Scale: "default", Results: []PerfResult{
		{Prefetcher: "pmp", AccessesPerSec: 800, AllocsPerAccess: 0.01},
	}}
	if regs := ComparePerf(base, slow, 0.10); len(regs) != 1 {
		t.Errorf("20%% slowdown: want 1 regression, got %q", regs)
	}

	leaky := PerfReport{Scale: "default", Results: []PerfResult{
		{Prefetcher: "pmp", AccessesPerSec: 1000, AllocsPerAccess: 1.5},
	}}
	if regs := ComparePerf(base, leaky, 0.10); len(regs) != 1 {
		t.Errorf("alloc increase: want 1 regression, got %q", regs)
	}

	// A prefetcher missing from the baseline is not a regression.
	novel := PerfReport{Scale: "default", Results: []PerfResult{
		{Prefetcher: "newcomer", AccessesPerSec: 1, AllocsPerAccess: 99},
	}}
	if regs := ComparePerf(base, novel, 0.10); len(regs) != 0 {
		t.Errorf("unknown prefetcher should be skipped, got %q", regs)
	}
}
