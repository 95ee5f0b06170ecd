// Benchmarks regenerating the paper's tables and figures (see
// DESIGN.md §5 for the experiment index). Each benchmark runs its
// experiment at a reduced scale and reports the headline numbers as
// custom metrics, printing the full table with -v via b.Log.
//
// Run one artifact:
//
//	go test -bench=BenchmarkFig8 -benchtime=1x -v
//
// Scale up via PMP_SCALE=default or PMP_SCALE=full (hours).
//
// Micro-benchmarks of the core data structures follow at the bottom.
package pmp_test

import (
	"os"
	"strconv"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// benchScale selects the experiment scale (PMP_SCALE=quick|default|full).
func benchScale() bench.Scale {
	switch os.Getenv("PMP_SCALE") {
	case "default":
		return bench.DefaultScale()
	case "full":
		return bench.FullScale()
	default:
		return bench.QuickScale()
	}
}

// runTable executes an experiment once per benchmark iteration and
// logs the rendered table.
func runTable(b *testing.B, f func() *bench.Table) *bench.Table {
	b.Helper()
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = f()
	}
	b.Log("\n" + t.String())
	return t
}

// reportRowMetric extracts a float cell from a table row by row label
// and reports it as a benchmark metric.
func reportRowMetric(b *testing.B, t *bench.Table, rowPrefix string, col int, metric string) {
	for _, row := range t.Rows {
		if row[0] == rowPrefix && col < len(row) {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

// --- One benchmark per paper artifact ---

// BenchmarkTableI regenerates Table I (PCR/PDR per feature).
func BenchmarkTableI(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableI(scale) })
}

// BenchmarkFig2 regenerates Fig 2 (pattern frequency concentration).
func BenchmarkFig2(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig2(scale) })
}

// BenchmarkFig4 regenerates Fig 4 (ICDD per clustering feature).
func BenchmarkFig4(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig4(scale) })
}

// BenchmarkFig5 regenerates Fig 5 (pattern heat maps).
func BenchmarkFig5(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig5(scale) })
}

// BenchmarkStorage regenerates Tables II/III/V (storage overhead).
func BenchmarkStorage(b *testing.B) {
	runTable(b, bench.Storage)
}

// BenchmarkFig8 regenerates Fig 8 (single-core NIPC of five prefetchers).
func BenchmarkFig8(b *testing.B) {
	scale := benchScale()
	t := runTable(b, func() *bench.Table { return bench.Fig8(bench.NewRunner(scale)) })
	reportRowMetric(b, t, "pmp", 5, "pmp-NIPC")
	reportRowMetric(b, t, "bingo", 5, "bingo-NIPC")
}

// BenchmarkFig9 regenerates Fig 9 (coverage and accuracy per level).
func BenchmarkFig9(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig9(bench.NewRunner(scale)) })
}

// BenchmarkFig10 regenerates Fig 10 (useful/useless prefetch volumes).
func BenchmarkFig10(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig10(bench.NewRunner(scale)) })
}

// BenchmarkNMT regenerates the §V-D normalized memory traffic numbers.
func BenchmarkNMT(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.NMT(bench.NewRunner(scale)) })
}

// BenchmarkTableVIII regenerates Table VIII (Design B ways sweep).
func BenchmarkTableVIII(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableVIII(bench.NewRunner(scale)) })
}

// BenchmarkExtraction regenerates the §V-E2 AFE/ANE/ARE comparison.
func BenchmarkExtraction(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Extraction(bench.NewRunner(scale)) })
}

// BenchmarkMultiFeature regenerates the §V-E3 structure comparison.
func BenchmarkMultiFeature(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.MultiFeature(bench.NewRunner(scale)) })
}

// BenchmarkTableIX regenerates Table IX (pattern length sweep).
func BenchmarkTableIX(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableIX(bench.NewRunner(scale)) })
}

// BenchmarkTableXOffsetWidth regenerates Table X left (trigger width).
func BenchmarkTableXOffsetWidth(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableXOffsetWidth(bench.NewRunner(scale)) })
}

// BenchmarkTableXCounterSize regenerates Table X right (counter width).
func BenchmarkTableXCounterSize(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableXCounterSize(bench.NewRunner(scale)) })
}

// BenchmarkTableXI regenerates Table XI (monitoring range sweep).
func BenchmarkTableXI(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.TableXI(bench.NewRunner(scale)) })
}

// BenchmarkFig12Bandwidth regenerates Fig 12a (bandwidth sensitivity).
func BenchmarkFig12Bandwidth(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig12Bandwidth(bench.NewRunner(scale)) })
}

// BenchmarkFig12LLC regenerates Fig 12b (LLC size sensitivity).
func BenchmarkFig12LLC(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig12LLC(bench.NewRunner(scale)) })
}

// BenchmarkFig13 regenerates Fig 13 (4-core mixes).
func BenchmarkFig13(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Fig13(bench.NewRunner(scale)) })
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

// BenchmarkAblations runs the extension ablations (halving, PB resume).
func BenchmarkAblations(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Ablations(bench.NewRunner(scale)) })
}

// BenchmarkRelated runs the related-work prefetcher comparison (§VI).
func BenchmarkRelated(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Related(bench.NewRunner(scale)) })
}

// BenchmarkPlacement runs the §V-B placement comparison (PMP@L1 vs
// original Bingo@LLC).
func BenchmarkPlacement(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Placement(bench.NewRunner(scale)) })
}

// BenchmarkThresholds runs the AFE threshold sweep extension.
func BenchmarkThresholds(b *testing.B) {
	scale := benchScale()
	runTable(b, func() *bench.Table { return bench.Thresholds(bench.NewRunner(scale)) })
}
