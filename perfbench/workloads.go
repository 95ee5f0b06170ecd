package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pmp/internal/bench"
	"pmp/internal/sim"
	"pmp/internal/sweep"
	"pmp/internal/trace"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pmp-1core", "mix-4core", "sweep-lineup"}

// workload is one named set of inputs and the timed work done on them.
type workload interface {
	// setup builds the inputs of the next pass; setup_s times it.
	setup() error
	// pass runs the timed region once. A non-nil tracer marks a traced
	// pass; workloads that build their own machines wrap them with it.
	pass(t *tracer) (passStats, error)
	// release drops the inputs of the previous pass.
	release() error
	// layerInputs returns the simulated system, the distinct trace
	// specs and the record count the layer rows replay.
	layerInputs() (sim.Config, []trace.Spec, int)
}

// replayer is a workload whose passes cannot carry the wrappers (the
// sweep builds its own jobs): its simulator layers are traced by a
// serial replay of the same jobs instead.
type replayer interface {
	replay(t *tracer) []runResult
}

// passStats is what one pass measured.
type passStats struct {
	wall    time.Duration
	jobs    int // simulation jobs executed in the timed region
	mallocs uint64
	runs    []runResult
	sweep   *sweepPass // sweep-lineup only
}

// timed runs f as the pass's timed region: wall time and heap mallocs.
func timed(ps *passStats, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	ps.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	return err
}

// protect runs one simulation, turning a panic into an error so the
// run counts as failed instead of ending the benchmark.
func protect(f func() []sim.Result) (res []sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f(), nil
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "pmp-1core":
		scale := bench.DefaultScale()
		return &singleCore{scale: scale, specs: subset(seed, scale.Traces)}, nil
	case "mix-4core":
		// Fig 13's system: the Table IV core and hierarchy with DefaultScale
		// windows, two DRAM channels and the shared inclusive LLC.
		cfg := bench.DefaultScale().Config()
		cfg.DRAM.Channels = 2
		return &multiCore{cfg: cfg, records: bench.DefaultScale().Records, mixes: mixes(seed), root: dir}, nil
	case "sweep-lineup":
		// QuickScale windows over the DefaultScale trace subset.
		scale := bench.QuickScale()
		specs := subset(seed, bench.DefaultScale().Traces)
		scale.Traces = len(specs)
		return &lineup{scale: scale, specs: specs, workers: runtime.NumCPU(), root: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// --- pmp-1core ---

// singleCore is the paper's headline experiment: every subset trace,
// pre-materialized in memory, simulated serially with no prefetching and
// with PMP.
type singleCore struct {
	scale  bench.Scale
	specs  []trace.Spec
	traces []*trace.Trace
}

func (w *singleCore) setup() error {
	w.traces = make([]*trace.Trace, len(w.specs))
	for i, sp := range w.specs {
		recs := generate(sp, w.scale.Records, make([]trace.Record, 0, w.scale.Records))
		w.traces[i] = trace.NewTrace(sp.Name, recs)
	}
	return nil
}

// generate returns the spec's records in buf, whose capacity should
// hold them all: unlike trace.Collect it then makes no growth copies,
// so set-up memory and time do not depend on when the collector runs.
func generate(sp trace.Spec, records int, buf []trace.Record) []trace.Record {
	src := sp.New(records)
	buf = buf[:0]
	for len(buf) < records {
		r, ok := src.Next()
		if !ok {
			break
		}
		buf = append(buf, r)
	}
	return buf
}

func (w *singleCore) release() error {
	w.traces = nil
	return nil
}

func (w *singleCore) layerInputs() (sim.Config, []trace.Spec, int) {
	return w.scale.Config(), w.specs, w.scale.Records
}

func (w *singleCore) pass(t *tracer) (passStats, error) {
	cfg := w.scale.Config()
	var ps passStats
	err := timed(&ps, func() error {
		for _, name := range []string{bench.NameNone, bench.NamePMP} {
			for _, tr := range w.traces {
				res, err := protect(func() []sim.Result {
					return simulate(t, cfg, []string{name}, []trace.Source{tr}, false)
				})
				ps.runs = append(ps.runs, runResult{base: tr.Name(), pf: name, res: res, err: err})
			}
		}
		return nil
	})
	ps.jobs = len(ps.runs)
	return ps, err
}

// --- mix-4core ---

// multiCore runs Fig 13's mixes on one 4-core Machine at a time, with
// every trace streamed from a .pmpt file written during set-up.
type multiCore struct {
	cfg     sim.Config
	records int
	mixes   [][]trace.Spec
	root    string
	dir     string            // this pass's trace files
	paths   map[string]string // trace name -> .pmpt path
	n       int
}

func (w *multiCore) setup() error {
	w.n++
	w.dir = filepath.Join(w.root, fmt.Sprintf("traces-%d", w.n))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.paths = map[string]string{}
	// One record buffer serves every trace, so set-up memory stays below
	// the pass's and peak_rss_mb measures the pass.
	buf := make([]trace.Record, 0, w.records)
	for _, mix := range w.mixes {
		for _, sp := range mix {
			if _, ok := w.paths[sp.Name]; ok {
				continue
			}
			buf = generate(sp, w.records, buf)
			path := filepath.Join(w.dir, sp.Name+".pmpt")
			if err := writeTrace(path, trace.NewTrace(sp.Name, buf)); err != nil {
				return err
			}
			w.paths[sp.Name] = path
		}
	}
	return nil
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (w *multiCore) release() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

func (w *multiCore) layerInputs() (sim.Config, []trace.Spec, int) {
	var specs []trace.Spec
	for _, mix := range w.mixes {
		specs = append(specs, mix...)
	}
	return w.cfg, specs, w.records
}

func (w *multiCore) pass(t *tracer) (passStats, error) {
	var ps passStats
	err := timed(&ps, func() error {
		for _, name := range []string{bench.NameNone, bench.NamePMP} {
			for i, mix := range w.mixes {
				run, err := w.runMix(t, name, mix)
				if err != nil {
					return err
				}
				run.base = fmt.Sprintf("mix%d", i)
				ps.runs = append(ps.runs, run)
			}
		}
		return nil
	})
	ps.jobs = len(ps.runs)
	return ps, err
}

// runMix opens one file source per core and runs the mix with every
// core training its own instance of the named prefetcher.
func (w *multiCore) runMix(t *tracer, name string, mix []trace.Spec) (runResult, error) {
	srcs := make([]trace.Source, len(mix))
	names := make([]string, len(mix))
	for i, sp := range mix {
		fs, err := trace.OpenFile(w.paths[sp.Name])
		if err != nil {
			return runResult{}, err
		}
		defer fs.Close()
		srcs[i] = fs
		names[i] = name
	}
	res, err := protect(func() []sim.Result { return simulate(t, w.cfg, names, srcs, true) })
	return runResult{pf: name, res: res, err: err}, nil
}

// --- sweep-lineup ---

// lineupExperiments are the experiments the lineup launches together:
// between them they run all 15 prefetchers plus the baseline, and most
// of their submissions fold onto earlier ones in the dedup table.
var lineupExperiments = []func(*bench.Runner) *bench.Table{
	bench.Fig8, bench.Fig9, bench.Fig10, bench.NMT, bench.Related,
}

// lineupNames lists the distinct prefetchers lineupExperiments run.
func lineupNames() []string {
	names := append([]string{bench.NameNone}, bench.EvalNames()...)
	names = append(names, bench.NamePMPLimit)
	return append(names, bench.RelatedNames()...)
}

// lineup runs lineupExperiments concurrently on one store-backed sweep,
// as cmd/pmpexperiments does, then resumes from the same store.
type lineup struct {
	scale   bench.Scale
	specs   []trace.Spec
	workers int
	root    string
	dir     string
	n       int
	sw      *sweep.Sweep
	runner  *bench.Runner
}

// sweepPass is what one lineup pass measured at the sweep layer.
type sweepPass struct {
	workers     int
	fresh       sweep.Manifest
	resumed     sweep.Manifest
	resume      time.Duration
	jobWallMS   []float64
	storeBytes  int64
	tablesMatch bool
}

func (w *lineup) storePath() string { return filepath.Join(w.dir, "lineup.jsonl") }

func (w *lineup) setup() error {
	w.n++
	w.dir = filepath.Join(w.root, fmt.Sprintf("store-%d", w.n))
	st, err := sweep.OpenStore(w.storePath(), false)
	if err != nil {
		return err
	}
	w.sw = sweep.New(context.Background(), sweep.Options{Workers: w.workers, Store: st})
	w.runner = bench.NewRunnerWith(w.scale, w.sw).WithSpecs(w.specs)
	return nil
}

func (w *lineup) release() error {
	if w.sw != nil {
		w.sw.Close()
		w.sw = nil
	}
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

func (w *lineup) layerInputs() (sim.Config, []trace.Spec, int) {
	return w.scale.Config(), w.specs, w.scale.Records
}

// runLineup launches lineupExperiments concurrently on r and returns
// their rendered tables in order.
func runLineup(r *bench.Runner) (string, error) {
	tables := make([]string, len(lineupExperiments))
	errs := make([]error, len(lineupExperiments))
	var wg sync.WaitGroup
	for i, exp := range lineupExperiments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("experiment %d: %v", i, p)
				}
			}()
			tables[i] = exp(r).String()
		}()
	}
	wg.Wait()
	return strings.Join(tables, "\n"), errors.Join(errs...)
}

func (w *lineup) pass(*tracer) (passStats, error) {
	var ps passStats
	var fresh string
	var m sweep.Manifest
	err := timed(&ps, func() error {
		var err error
		fresh, err = runLineup(w.runner)
		m = w.sw.Close()
		return err
	})
	w.sw = nil
	if err != nil {
		return ps, err
	}

	t0 := time.Now()
	st, err := sweep.OpenStore(w.storePath(), true)
	if err != nil {
		return ps, err
	}
	sw := sweep.New(context.Background(), sweep.Options{Workers: w.workers, Store: st})
	resumed, err := runLineup(bench.NewRunnerWith(w.scale, sw).WithSpecs(w.specs))
	rm := sw.Close()
	resume := time.Since(t0)
	if err != nil {
		return ps, err
	}

	records, _, err := sweep.ReadRecords(w.storePath())
	if err != nil {
		return ps, err
	}
	info, err := os.Stat(w.storePath())
	if err != nil {
		return ps, err
	}
	sp := &sweepPass{
		workers: w.workers, fresh: m, resumed: rm, resume: resume,
		storeBytes: info.Size(), tablesMatch: fresh == resumed,
	}
	ids := make([]string, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := records[id]
		sp.jobWallMS = append(sp.jobWallMS, float64(rec.WallNS)/1e6)
		run := runResult{base: rec.Trace, pf: rec.Prefetcher, res: rec.Results}
		if len(run.res) == 0 {
			run.res = []sim.Result{rec.Result}
		}
		if rec.Status != sweep.StatusOK {
			run.err = fmt.Errorf("job %s: %s", rec.Status, rec.Err)
		}
		ps.runs = append(ps.runs, run)
	}
	ps.sweep = sp
	ps.jobs = m.Completed
	return ps, nil
}

// replay re-runs every distinct lineup job serially with the wrappers,
// generating each trace inline as the sweep's jobs do.
func (w *lineup) replay(t *tracer) []runResult {
	cfg := w.scale.Config()
	var runs []runResult
	for _, name := range lineupNames() {
		for _, sp := range w.specs {
			res, err := protect(func() []sim.Result {
				return simulate(t, cfg, []string{name}, []trace.Source{sp.New(w.scale.Records)}, false)
			})
			runs = append(runs, runResult{base: sp.Name, pf: name, res: res, err: err})
		}
	}
	return runs
}
