package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// PerfResult measures simulator throughput for one prefetcher: how
// fast the host executes the simulation, as opposed to how well the
// simulated machine performs. The two headline numbers are simulated
// demand accesses per wall-clock second and heap allocations per
// access; the zero-allocation hot path keeps the latter at ~0 in
// steady state (construction of the system and tables is the only
// remaining source).
type PerfResult struct {
	Prefetcher      string  `json:"prefetcher"`
	Traces          int     `json:"traces"`
	Accesses        uint64  `json:"accesses"` // measured demand accesses summed over traces
	Seconds         float64 `json:"seconds"`
	AccessesPerSec  float64 `json:"accesses_per_sec"`
	Mallocs         uint64  `json:"mallocs"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
}

// PerfReport is the serialized output of RunPerf: the regression
// baseline committed as BENCH_default.json and the artifact the CI
// benchmark job regenerates for comparison.
type PerfReport struct {
	Scale   string       `json:"scale"`   // Scale.Name(): "quick", "default", "full" or "custom"
	Records int          `json:"records"` // trace records generated per trace
	Notes   []string     `json:"notes,omitempty"`
	Results []PerfResult `json:"results"`
}

// RunPerf measures simulator throughput for each named prefetcher over
// the scale's trace subset. Runs are strictly serial — one simulation
// at a time on one goroutine — so accesses/sec is comparable across
// machines with different core counts, and mallocs attribute cleanly.
//
// Every trace is materialized up front, outside the timed regions, so
// the numbers measure the simulator alone: trace generation is a
// per-suite fixed cost (and for real workloads happens offline in
// `pmptrace convert`), and charging it to the first prefetcher in the
// lineup would skew cross-prefetcher comparison and hide simulator
// regressions behind generator changes.
func RunPerf(scale Scale, names []string) PerfReport {
	cfg := scale.Config()
	specs := scale.Specs()
	traces := make([]*trace.Trace, len(specs))
	for i, spec := range specs {
		traces[i] = trace.Collect(spec.New(scale.Records), 0)
	}
	report := PerfReport{Scale: scale.Name(), Records: scale.Records,
		Notes: []string{"traces pre-materialized; timed region is the simulator only"}}
	for _, name := range names {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var accesses uint64
		for _, tr := range traces {
			tr.Reset()
			pf := []prefetch.Prefetcher{NewPrefetcher(name)}
			res := sim.NewMachineAt(cfg, pf, nil, false).Run([]trace.Source{tr})
			accesses += res[0].L1D.DemandAccesses
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		mallocs := m1.Mallocs - m0.Mallocs
		r := PerfResult{
			Prefetcher: name,
			Traces:     len(specs),
			Accesses:   accesses,
			Seconds:    elapsed.Seconds(),
			Mallocs:    mallocs,
		}
		if accesses > 0 {
			r.AccessesPerSec = float64(accesses) / elapsed.Seconds()
			r.AllocsPerAccess = float64(mallocs) / float64(accesses)
		}
		report.Results = append(report.Results, r)
	}
	return report
}

// WritePerf serializes the report as indented JSON.
func WritePerf(path string, report PerfReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerf loads a report written by WritePerf.
func ReadPerf(path string) (PerfReport, error) {
	var report PerfReport
	data, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return report, fmt.Errorf("%s: %w", path, err)
	}
	return report, nil
}

// allocSlack absorbs run-to-run noise in allocs/access: one-time
// construction cost (tables, caches, trace generators) is amortized
// over the access count, so tiny fluctuations from GC timing are not
// regressions. Real hot-path allocations show up as O(1) per access,
// far above this threshold.
const allocSlack = 0.05

// ComparePerf checks a fresh report against a baseline and returns a
// human-readable list of regressions: throughput down by more than
// tolerance (fraction, e.g. 0.10), or allocs/access up by more than
// the noise floor. Prefetchers present in only one report are skipped
// — the comparison gates changes, not lineup membership. An empty
// slice means no regression.
func ComparePerf(baseline, current PerfReport, tolerance float64) []string {
	base := map[string]PerfResult{}
	for _, r := range baseline.Results {
		base[r.Prefetcher] = r
	}
	var regressions []string
	for _, cur := range current.Results {
		b, ok := base[cur.Prefetcher]
		if !ok || b.AccessesPerSec <= 0 {
			continue
		}
		if ratio := cur.AccessesPerSec / b.AccessesPerSec; ratio < 1-tolerance {
			regressions = append(regressions, fmt.Sprintf(
				"%s: throughput %.0f accesses/sec, down %.1f%% from baseline %.0f (tolerance %.0f%%)",
				cur.Prefetcher, cur.AccessesPerSec, 100*(1-ratio), b.AccessesPerSec, 100*tolerance))
		}
		if cur.AllocsPerAccess > b.AllocsPerAccess+allocSlack {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2f allocs/access, up from baseline %.2f",
				cur.Prefetcher, cur.AllocsPerAccess, b.AllocsPerAccess))
		}
	}
	return regressions
}

// Perf renders a report as a Table for human consumption.
func Perf(report PerfReport) *Table {
	t := &Table{
		ID:     "PERF",
		Title:  fmt.Sprintf("simulator throughput (%s scale, serial)", report.Scale),
		Header: []string{"prefetcher", "traces", "accesses", "sec", "acc/sec", "allocs/acc"},
	}
	for _, r := range report.Results {
		t.AddRow(r.Prefetcher, fmt.Sprint(r.Traces), fmt.Sprint(r.Accesses),
			fmt.Sprintf("%.2f", r.Seconds), fmt.Sprintf("%.0f", r.AccessesPerSec),
			fmt.Sprintf("%.2f", r.AllocsPerAccess))
	}
	t.Notes = append(t.Notes, report.Notes...)
	return t
}
