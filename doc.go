// Package pmp is a from-scratch Go reproduction of "Merging Similar
// Patterns for Hardware Prefetching" (Jiang, Yang, Ci — MICRO 2022):
// the Pattern Merging Prefetcher, the four state-of-the-art prefetchers
// it is evaluated against, a trace-driven timing simulator standing in
// for ChampSim, synthetic workload generators standing in for the
// paper's 125 SPEC/PARSEC/Ligra traces, the Section III pattern-analysis
// tooling, and a benchmark harness that regenerates every table and
// figure of the evaluation.
//
// Start with the README for a tour; DESIGN.md maps every subsystem and
// experiment; EXPERIMENTS.md records paper-vs-measured numbers.
// BenchmarkExperiments in bench_test.go regenerates each artifact of
// the experiment index as a sub-benchmark named by its ID:
//
//	go test -bench=BenchmarkExperiments/F8 -benchtime=1x
//
// The public surface for embedding lives under internal/ by design —
// this repository is a research artifact; the runnable surface is the
// commands (cmd/pmpsim, cmd/pmptrace, cmd/pmpanalyze, cmd/pmpexperiments)
// and the examples.
package pmp
