// Command perfbench is the repository's benchmark: it runs one named
// workload through the public APIs of internal/sim, internal/bench,
// internal/sweep and internal/trace, checks every result, and prints
// its metrics. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones from a separate traced run.
// See README.md for the workloads, metrics and noise.
//
// Usage:
//
//	perfbench -workload pmp-1core|mix-4core|sweep-lineup [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Passes a run makes at least, however short -seconds is: the timing
// metrics choose among several, and a traced run alternates two of each
// kind.
const (
	minPasses       = 3
	minTracedPasses = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pmp-1core, mix-4core or sweep-lineup")
	seed := fs.Int64("seed", DefaultSeed, "input seed; the default reproduces the paper's trace subsets")
	seconds := fs.Float64("seconds", 10, "timed seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for trace files and stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds positive, and no positional arguments")
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %gs measured, trace %d, GOMAXPROCS %d\n",
		*name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	r := &runner{w: w, ck: newChecker(), budget: time.Duration(*seconds * float64(time.Second))}
	var res result
	if *traceFlag == 1 {
		res, err = r.runTraced(stdout)
	} else {
		res, err = r.runUntraced(stdout)
	}
	if err == nil {
		err = w.release()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range r.ck.errs {
		fmt.Fprintln(stdout, "check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner drives one workload through its passes.
type runner struct {
	w      workload
	ck     *checker
	budget time.Duration

	setups []float64
	plain  []passStats
	traced []tracedPass
}

type tracedPass struct {
	passStats
	t *tracer
}

// onePass sets up and runs one pass, checking its results.
func (r *runner) onePass(t *tracer) (passStats, error) {
	if err := r.w.release(); err != nil {
		return passStats{}, err
	}
	runtime.GC()
	t0 := time.Now()
	if err := r.w.setup(); err != nil {
		return passStats{}, fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	runtime.GC()
	ps, err := r.w.pass(t)
	if err != nil {
		return ps, err
	}
	r.ck.runs(ps.runs)
	if sp := ps.sweep; sp != nil {
		r.ck.op(sp.tablesMatch && sp.resumed.Completed == 0 && sp.resumed.Cached == sp.fresh.Submitted,
			"resume: tables identical %v, %d re-run, %d of %d served from the store",
			sp.tablesMatch, sp.resumed.Completed, sp.resumed.Cached, sp.fresh.Submitted)
	}
	return ps, nil
}

func (r *runner) result(metrics map[string]float64, specs []metricSpec) result {
	res := result{
		Correct:   r.ck.failed == 0,
		Attempted: r.ck.attempted,
		Failed:    r.ck.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range specs {
		if !m.extra {
			res.Metrics[m.name] = metric{Value: metrics[m.name], Unit: m.unit}
		}
	}
	return res
}

// runUntraced measures the end-to-end metrics over passes until the
// budget of timed seconds is spent.
func (r *runner) runUntraced(out io.Writer) (result, error) {
	var spent time.Duration
	for spent < r.budget || len(r.plain) < minPasses {
		ps, err := r.onePass(nil)
		if err != nil {
			return result{}, err
		}
		r.plain = append(r.plain, ps)
		spent += ps.wall
	}
	m := endToEndMetrics(r.setups, r.plain, peakRSSMB())
	var walls []float64
	for _, p := range r.plain {
		walls = append(walls, p.wall.Seconds())
	}
	fmt.Fprintf(out, "%d passes; wall_s per pass: %s (median %.4g)\n", len(walls), fmtList(walls), median(walls))
	fmt.Fprintf(out, "setup_s per pass: %s\n", fmtList(r.setups))
	printMetrics(out, m, endToEnd, nil)
	fmt.Fprintf(out, "%-28s %-14.6g %-9s %s\n", "ops_failed_frac",
		ratio(float64(r.ck.failed), float64(r.ck.attempted)), "ratio",
		fmt.Sprintf("%d failed of %d attempted (runs, jobs and resume checks)", r.ck.failed, r.ck.attempted))
	return r.result(m, endToEnd), nil
}

// runTraced alternates untraced and traced passes, then adds the layers
// timed alone and reports the per-layer metrics.
func (r *runner) runTraced(out io.Writer) (result, error) {
	bracket := bracketNS()
	var spent time.Duration
	for i := 0; spent < r.budget || len(r.plain) < minTracedPasses || len(r.traced) < minTracedPasses; i++ {
		var t *tracer
		if i%2 == 1 {
			t = &tracer{}
		}
		ps, err := r.onePass(t)
		if err != nil {
			return result{}, err
		}
		spent += ps.wall
		if t == nil {
			r.plain = append(r.plain, ps)
		} else {
			r.traced = append(r.traced, tracedPass{ps, t})
		}
	}

	var samples []map[string]float64
	notes := map[string]string{}
	if rp, ok := r.w.(replayer); ok {
		t := &tracer{}
		runs := rp.replay(t)
		for _, run := range runs {
			if _, ok := r.ck.ref[run.key()]; !ok {
				r.ck.op(false, "replay %s: no such job in the sweep", run.key())
			}
		}
		r.ck.runs(runs)
		sim := simLayers(t, runs, bracket)
		for k := range sim {
			notes[k] = "from a serial replay of the sweep's jobs, outside the timed region"
		}
		samples = append(samples, sim)
		for _, tp := range r.traced {
			samples = append(samples, sweepLayer(tp.sweep, tp.wall.Seconds()))
		}
	} else {
		for _, tp := range r.traced {
			samples = append(samples, simLayers(tp.t, tp.runs, bracket))
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "sweep.") {
				notes[m.name] = "n/a: this workload bypasses the sweep; reported as 0"
			}
		}
	}
	m := medians(samples)
	for k, v := range layerRows(measureLayers(r.w.layerInputs())) {
		m[k] = v
	}
	var plainWalls, tracedWalls []float64
	for _, p := range r.plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range r.traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	m["bench.tracing_overhead_frac"] = passTime(tracedWalls)/passTime(plainWalls) - 1

	fmt.Fprintf(out, "empty timed bracket reads %.1f ns; 1 in %d calls timed\n", bracket, sampleEvery)
	fmt.Fprintf(out, "untraced wall_s: %s; traced wall_s: %s\n", fmtList(plainWalls), fmtList(tracedWalls))
	if r.traced[0].sweep != nil {
		fmt.Fprintf(out, "sweep job percentiles from %d jobs per pass\n", len(r.traced[0].sweep.jobWallMS))
	}
	printMetrics(out, m, perLayer, notes)
	return r.result(m, perLayer), nil
}

// medians returns, per metric, the median over the samples that have it.
func medians(samples []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

func printMetrics(out io.Writer, m map[string]float64, specs []metricSpec, notes map[string]string) {
	fmt.Fprintf(out, "%-28s %-14s %-9s %s\n", "metric", "value", "unit", "meaning")
	for _, s := range specs {
		help := s.help
		if n := notes[s.name]; n != "" {
			help += " [" + n + "]"
		}
		v, ok := m[s.name]
		if !ok {
			if notes[s.name] == "" {
				help += " [not reported: fewer than 10 samples beyond it]"
			}
			fmt.Fprintf(out, "%-28s %-14s %-9s %s\n", s.name, "-", s.unit, help)
			continue
		}
		fmt.Fprintf(out, "%-28s %-14.6g %-9s %s\n", s.name, v, s.unit, help)
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
