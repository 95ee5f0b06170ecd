package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// tinyConfig is a scale at which every registry prefetcher runs in a
// few milliseconds.
func tinyConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Warmup = 4_000
	cfg.Measure = 12_000
	return cfg
}

// TestWrapperTransparent runs every registry prefetcher with and without
// the timing wrappers: the results must be identical, and the wrapper
// must be a Requeuer exactly when the prefetcher is one.
func TestWrapperTransparent(t *testing.T) {
	cfg := tinyConfig()
	specs := trace.Representative(4)
	for _, name := range bench.Names() {
		_, innerRQ := bench.NewPrefetcher(name).(prefetch.Requeuer)
		_, wrapRQ := (&tracer{}).wrap(bench.NewPrefetcher(name)).(prefetch.Requeuer)
		if innerRQ != wrapRQ {
			t.Errorf("%s: inner Requeuer %v, wrapped Requeuer %v", name, innerRQ, wrapRQ)
		}
		for _, sp := range specs {
			plain := simulate(nil, cfg, []string{name}, []trace.Source{sp.New(8_000)}, false)
			tr := &tracer{}
			traced := simulate(tr, cfg, []string{name}, []trace.Source{sp.New(8_000)}, false)
			if digest(plain) != digest(traced) {
				t.Errorf("%s on %s: wrapped result differs:\nplain  %+v\ntraced %+v", name, sp.Name, plain[0], traced[0])
			}
			if tr.train.calls == 0 || tr.records == 0 || tr.issue.calls < tr.train.calls {
				t.Errorf("%s on %s: calls not counted: %+v", name, sp.Name, *tr)
			}
		}
	}
}

// TestWrapperTransparentMulticore covers the shared LLC, back-invalidation
// and trace replay of a 4-core mix.
func TestWrapperTransparentMulticore(t *testing.T) {
	cfg := tinyConfig()
	cfg.DRAM.Channels = 2
	mix := mixes(DefaultSeed)[4]
	srcs := func() []trace.Source {
		out := make([]trace.Source, len(mix))
		for i, sp := range mix {
			out[i] = sp.New(3_000)
		}
		return out
	}
	names := []string{bench.NamePMP, bench.NamePMP, bench.NamePMP, bench.NamePMP}
	tr := &tracer{}
	plain := simulate(nil, cfg, names, srcs(), true)
	traced := simulate(tr, cfg, names, srcs(), true)
	if digest(plain) != digest(traced) {
		t.Fatal("wrapped 4-core result differs")
	}
	if tr.resets <= tr.runs {
		t.Errorf("expected the short traces to wrap: %d resets for %d sources", tr.resets, tr.runs)
	}
	if tr.pmp.Predictions == 0 {
		t.Error("PMP statistics were not collected")
	}
}

// TestMetricNames checks every metric name against the form the result
// line allows and for duplicates.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q is malformed", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range file.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, program has %v", workloads, workloadNames)
	}
	type nu struct{ Name, Unit string }
	var want []nu
	for _, m := range endToEnd {
		want = append(want, nu{m.name, m.unit})
	}
	var got []nu
	for _, m := range file.EndToEnd {
		got = append(got, nu(m))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program has %v", got, want)
	}
	want, got = nil, nil
	for _, m := range perLayer {
		if !m.extra {
			want = append(want, nu{m.name, m.unit})
		}
	}
	for _, m := range file.PerLayer {
		got = append(got, nu(m))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, program has %v", got, want)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
		v  float64
	}{
		{19, 50, false, 10},
		{20, 50, true, 10},
		{99, 90, false, 90},
		{100, 90, true, 90},
		{238, 90, true, 215},
		{0, 50, false, 0},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || v != c.v {
			t.Errorf("p%g of %d samples = (%g, %v), want (%g, %v)", c.p, c.n, v, ok, c.v, c.ok)
		}
	}
	few := sweepLayer(&sweepPass{workers: 2, jobWallMS: seq(50)}, 1)
	if _, ok := few["sweep.job_p90_ms"]; ok {
		t.Error("p90 of 50 jobs reported")
	}
	if _, ok := few["sweep.job_p50_ms"]; !ok {
		t.Error("p50 of 50 jobs not reported")
	}
}

func TestDefaultSeedReproducesPaperSubsets(t *testing.T) {
	names := func(specs []trace.Spec) string {
		var s []string
		for _, sp := range specs {
			s = append(s, sp.Name)
		}
		return strings.Join(s, ",")
	}
	if got, want := names(subset(DefaultSeed, 16)), names(bench.DefaultScale().Specs()); got != want {
		t.Errorf("default subset %s, want %s", got, want)
	}
	mx := mixes(DefaultSeed)
	if len(mx) != 10 {
		t.Fatalf("%d mixes, want Fig 13's 4 homogeneous + 6 heterogeneous", len(mx))
	}
	if got, want := names(mx[0]), strings.Repeat("spec06.stream-0,", 3)+"spec06.stream-0"; got != want {
		t.Errorf("first homogeneous mix %s, want %s", got, want)
	}
	for _, seed := range []int64{1, HeldOutSeed} {
		sub := subset(seed, 16)
		if names(sub) == names(subset(DefaultSeed, 16)) {
			t.Errorf("seed %d picks the default subset", seed)
		}
		if names(sub) != names(subset(seed, 16)) {
			t.Errorf("seed %d is not deterministic", seed)
		}
		seen := map[string]bool{}
		for i, sp := range sub {
			if traceClass(sp) != traceClass(subset(DefaultSeed, 16)[i]) {
				t.Errorf("seed %d: %s is not interchangeable with the default pick", seed, sp.Name)
			}
			if seen[sp.Name] {
				t.Errorf("seed %d repeats %s", seed, sp.Name)
			}
			seen[sp.Name] = true
		}
	}
}

func TestCheckerCountsFailures(t *testing.T) {
	good := sim.Result{Instructions: 10, Cycles: 20}
	good.L1D.DemandAccesses, good.L1D.DemandHits, good.L1D.DemandMisses = 5, 3, 2
	bad := good
	bad.L1D.DemandHits = 4
	changed := good
	changed.Cycles = 21

	c := newChecker()
	c.runs([]runResult{{base: "t", pf: "pmp", res: []sim.Result{good}}})
	c.runs([]runResult{{base: "t", pf: "pmp", res: []sim.Result{good}}})
	if c.failed != 0 {
		t.Fatalf("identical runs failed: %v", c.errs)
	}
	c.runs([]runResult{{base: "t", pf: "pmp", res: []sim.Result{changed}}})
	c.runs([]runResult{{base: "u", pf: "pmp", res: []sim.Result{bad}}})
	c.runs([]runResult{{base: "v", pf: "pmp", err: os.ErrInvalid}})
	if c.attempted != 5 || c.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3: %v", c.attempted, c.failed, c.errs)
	}
}

// tinyScale runs the workloads' real code paths in milliseconds.
func tinyScale() bench.Scale {
	return bench.Scale{Traces: 4, Records: 3_000, Warmup: 2_000, Measure: 6_000}
}

// TestWorkloadsRepeat runs each workload's set-up and pass twice, one
// of them traced, at a tiny scale: every check must pass, including the
// digest comparison between the two passes.
func TestWorkloadsRepeat(t *testing.T) {
	scale := tinyScale()
	cfg := scale.Config()
	cfg.DRAM.Channels = 2
	specs := subset(1, 16)[:4]
	for name, w := range map[string]workload{
		"pmp-1core":    &singleCore{scale: scale, specs: specs},
		"mix-4core":    &multiCore{cfg: cfg, records: scale.Records, mixes: mixes(1)[3:5], root: t.TempDir()},
		"sweep-lineup": &lineup{scale: scale, specs: specs, workers: 2, root: t.TempDir()},
	} {
		r := &runner{w: w, ck: newChecker()}
		for _, tr := range []*tracer{nil, {}} {
			ps, err := r.onePass(tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ps.jobs == 0 || len(ps.runs) == 0 {
				t.Errorf("%s: empty pass", name)
			}
		}
		if err := w.release(); err != nil {
			t.Error(name, err)
		}
		if r.ck.failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, r.ck.failed, r.ck.attempted, r.ck.errs)
		}
		if name != "sweep-lineup" {
			continue
		}
		runs := w.(replayer).replay(&tracer{})
		if want := len(lineupNames()) * len(specs); len(runs) != want {
			t.Errorf("replay ran %d jobs, want %d", len(runs), want)
		}
		for _, run := range runs {
			if _, ok := r.ck.ref[run.key()]; !ok {
				t.Errorf("replay job %s is not one the sweep ran", run.key())
			}
		}
		r.ck.runs(runs)
		if r.ck.failed != 0 {
			t.Errorf("replay differs from the sweep: %v", r.ck.errs)
		}
	}
}
