// Benchmarks regenerating the paper's tables and figures:
// BenchmarkExperiments runs every entry of the experiment index
// (bench.Experiments, DESIGN.md §5) as a sub-benchmark named by its
// ID, and logs the rendered table (-v prints it).
//
// Run one artifact:
//
//	go test -bench=BenchmarkExperiments/F8 -benchtime=1x -v
//
// The scale is quick unless PMP_SCALE names another (default, or full
// for hours).
//
// Micro-benchmarks of the core data structures follow at the bottom.
package pmp_test

import (
	"os"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// BenchmarkExperiments regenerates each artifact of the experiment
// index once per iteration.
func BenchmarkExperiments(b *testing.B) {
	name := os.Getenv("PMP_SCALE")
	if name == "" {
		name = "quick"
	}
	scale, err := bench.ParseScale(name)
	if err != nil {
		b.Fatal(err)
	}
	r := bench.NewRunner(scale)
	for _, e := range bench.Experiments(nil) {
		b.Run(e.ID, func(b *testing.B) {
			var t *bench.Table
			for i := 0; i < b.N; i++ {
				t = e.Run(r)
			}
			b.Log("\n" + t.String())
		})
	}
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkPMPTrain measures PMP's per-access training+prediction cost.
func BenchmarkPMPTrain(b *testing.B) {
	p := core.New(core.DefaultConfig())
	src := trace.NewStream("s", 1, 1<<20, trace.DefaultStreamParams())
	recs := trace.Collect(src, 1<<16).Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i&(len(recs)-1)]
		p.Train(prefetch.Access{PC: r.PC, Addr: r.Addr})
		p.IssueInto(nil, 8)
	}
}

// BenchmarkCounterVectorMerge measures the pattern-merge primitive on
// one 64-counter row of a packed pattern table.
func BenchmarkCounterVectorMerge(b *testing.B) {
	row := mem.NewPackedCounterTable(1, 64, 5)
	pat := mem.BitVectorOf(64, 0, 1, 2, 3, 8, 16, 31, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row.MergeRow(0, pat)
	}
}

// BenchmarkAnchor measures bit-vector anchoring.
func BenchmarkAnchor(b *testing.B) {
	v := mem.BitVectorOf(64, 3, 7, 12, 40, 63)
	for i := 0; i < b.N; i++ {
		_ = v.Anchor(i & 63)
	}
}

// BenchmarkSimulator measures end-to-end simulation throughput
// (records/op covers a full demand access through the hierarchy).
func BenchmarkSimulator(b *testing.B) {
	recs := trace.Collect(trace.NewStream("s", 1, 1<<17, trace.DefaultStreamParams()), 0)
	cfg := sim.DefaultConfig()
	cfg.Warmup = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{core.New(core.DefaultConfig())}, nil, false)
		res := m.Run([]trace.Source{recs})
		b.ReportMetric(float64(res[0].Instructions), "instructions/op")
	}
}
