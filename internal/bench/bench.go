// Package bench is the experiment harness: one builder per table and
// figure of the paper's evaluation, listed by Experiments (the index
// that DESIGN.md §5 describes). The sweep tables share one builder,
// the grid, and each declares only its rows, columns and notes. Each
// builder executes the required simulations on a Runner and returns a
// Table whose rows mirror what the paper reports, so the repository's
// benchmarks, pmpexperiments and pmpanalyze regenerate every artifact
// from the same code.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/prefetchers/bop"
	"pmp/internal/prefetchers/dspatch"
	"pmp/internal/prefetchers/nextline"
	"pmp/internal/prefetchers/pythia"
	"pmp/internal/prefetchers/sandbox"
	"pmp/internal/prefetchers/smsref"
	"pmp/internal/prefetchers/spp"
	"pmp/internal/prefetchers/stride"
	"pmp/internal/prefetchers/vldp"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// Scale sizes an experiment run. The paper uses 50M warm-up + 200M
// measured instructions over 125 traces; the default scales that down
// so the full harness completes in minutes, preserving relative
// behaviour.
type Scale struct {
	Traces  int    // n of the trace.Representative(n) subset, which may hold fewer traces
	Records int    // trace records generated per trace
	Warmup  uint64 // warm-up instructions
	Measure uint64 // measured instructions (0 = rest of trace)
}

// QuickScale is sized for unit tests and smoke benchmarks. It runs 5
// traces.
func QuickScale() Scale {
	return Scale{Traces: 6, Records: 60_000, Warmup: 40_000, Measure: 150_000}
}

// DefaultScale is the standard reduced evaluation. It runs 14 traces:
// 4 SPEC06, 4 SPEC17, 5 Ligra and 1 PARSEC.
func DefaultScale() Scale {
	return Scale{Traces: 16, Records: 250_000, Warmup: 150_000, Measure: 800_000}
}

// FullScale runs the complete 125-trace suite (hours, not minutes).
func FullScale() Scale {
	return Scale{Traces: 125, Records: 2_000_000, Warmup: 2_000_000, Measure: 8_000_000}
}

// scales is the one table of scale names: pmpexperiments -scale,
// PMP_SCALE, TestPerf's -perf-scale and PerfReport.Scale all read it.
var scales = []struct {
	name  string
	scale func() Scale
}{
	{"quick", QuickScale},
	{"default", DefaultScale},
	{"full", FullScale},
}

// ParseScale returns the scale of the given name.
func ParseScale(name string) (Scale, error) {
	names := make([]string, len(scales))
	for i, s := range scales {
		if s.name == name {
			return s.scale(), nil
		}
		names[i] = s.name
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (want %s)", name, strings.Join(names, ", "))
}

// Name returns the scale's name, or "custom" for an unnamed scale.
func (s Scale) Name() string {
	for _, n := range scales {
		if n.scale() == s {
			return n.name
		}
	}
	return "custom"
}

// Specs returns the trace subset for the scale.
func (s Scale) Specs() []trace.Spec { return trace.Representative(s.Traces) }

// Config returns the simulator configuration for the scale.
func (s Scale) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Warmup = s.Warmup
	cfg.Measure = s.Measure
	return cfg
}

// The prefetcher lineup of the paper's evaluation (Fig 8 order).
const (
	NameNone     = "none"
	NameDSPatch  = "dspatch"
	NameBingo    = "bingo"
	NameSPPPPF   = "spp-ppf"
	NamePythia   = "pythia"
	NamePMP      = "pmp"
	NamePMPLimit = "pmp-limit"
	NameNextline = "nextline"
	NameStride   = "stride"
	NameBOP      = "bop"
	NameSandbox  = "sandbox"
	NameVLDP     = "vldp"
	NameSMS      = "sms"
)

// EvalNames returns the paper's five evaluated prefetchers in
// presentation order.
func EvalNames() []string {
	return []string{NameDSPatch, NameBingo, NameSPPPPF, NamePythia, NamePMP}
}

// RelatedNames returns the additional prefetchers from the paper's
// related-work section implemented in this repository.
func RelatedNames() []string {
	return []string{NameNextline, NameStride, NameBOP, NameSandbox, NameVLDP, NameSMS}
}

// Names lists every registered prefetcher name: the baseline, the
// related-work designs, the evaluated designs and PMP-Limit.
func Names() []string {
	names := append([]string{NameNone}, RelatedNames()...)
	names = append(names, EvalNames()...)
	return append(names, NamePMPLimit)
}

// registered reports whether name is in Names without building the
// list, which would cost allocations on every job.
func registered(name string) bool {
	return name == NameNone || name == NamePMPLimit ||
		slices.Contains(RelatedNames(), name) || slices.Contains(EvalNames(), name)
}

// NewPrefetcher constructs a fresh prefetcher by name; it panics on an
// unknown name (the registry is fixed). CLI surfaces should prefer
// BuildVariant(RegistryVariant(name)), which reports it as an error.
func NewPrefetcher(name string) prefetch.Prefetcher {
	switch name {
	case NameNone:
		return prefetch.Nop{}
	case NameNextline:
		return nextline.New(1)
	case NameStride:
		return stride.New()
	case NameBOP:
		return bop.New()
	case NameSandbox:
		return sandbox.New()
	case NameVLDP:
		return vldp.New()
	case NameSMS:
		return smsref.New()
	case NameDSPatch:
		return dspatch.New()
	case NameBingo:
		return bingo.New(bingo.DefaultConfig())
	case NameSPPPPF:
		return spp.New()
	case NamePythia:
		return pythia.New()
	case NamePMP:
		return core.New(core.DefaultConfig())
	case NamePMPLimit:
		cfg := core.DefaultConfig()
		cfg.LowLevelDegree = 1
		return core.New(cfg)
	default:
		panic(fmt.Sprintf("bench: unknown prefetcher %q", name))
	}
}

// bingoOriginalConfig is the non-doubled DPC-3 Bingo (half the
// enhanced pattern table), the configuration the paper places at the
// LLC in §V-B.
func bingoOriginalConfig() bingo.Config {
	c := bingo.DefaultConfig()
	c.PHTSets /= 2
	return c
}

// SuiteResult holds one prefetcher's results across the trace subset,
// aligned with the baseline runs.
type SuiteResult struct {
	Results  []sim.Result // one per trace, same order as Baseline
	Baseline []sim.Result
	Specs    []trace.Spec
}

// NIPC returns the geometric-mean normalized IPC across traces.
func (s SuiteResult) NIPC() float64 {
	return geomeanRatio(s.Results, s.Baseline, func(r sim.Result) float64 { return r.IPC() })
}

// NIPCByFamily returns geomean NIPC per trace family.
func (s SuiteResult) NIPCByFamily() map[trace.Family]float64 {
	idx := map[trace.Family][]int{}
	for i, sp := range s.Specs {
		idx[sp.Family] = append(idx[sp.Family], i)
	}
	out := map[trace.Family]float64{}
	for fam, is := range idx {
		var sum float64
		n := 0
		for _, i := range is {
			b := s.Baseline[i].IPC()
			if b <= 0 {
				continue
			}
			sum += math.Log(s.Results[i].IPC() / b)
			n++
		}
		if n > 0 {
			out[fam] = math.Exp(sum / float64(n))
		}
	}
	return out
}

// NMT returns the mean normalized memory traffic (total DRAM requests
// over the baseline's), averaged across traces.
func (s SuiteResult) NMT() float64 {
	var sum float64
	n := 0
	for i := range s.Results {
		b := float64(s.Baseline[i].DRAM.Requests)
		if b == 0 {
			continue
		}
		sum += float64(s.Results[i].DRAM.Requests) / b
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func geomeanRatio(a, b []sim.Result, metric func(sim.Result) float64) float64 {
	var sum float64
	n := 0
	for i := range a {
		den := metric(b[i])
		if den <= 0 {
			continue
		}
		sum += math.Log(metric(a[i]) / den)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// defaultSweep is the process-wide scheduler used by Runners built
// without an explicit sweep (tests, benchmarks, library use): one
// worker pool of GOMAXPROCS workers and one job-dedup table shared by
// every such Runner in the process. It has no results store and is
// never closed.
var (
	defaultSweepOnce sync.Once
	defaultSweepVal  *sweep.Sweep
)

func defaultSweep() *sweep.Sweep {
	defaultSweepOnce.Do(func() {
		defaultSweepVal = sweep.New(context.Background(), sweep.Options{Workers: runtime.GOMAXPROCS(0)})
	})
	return defaultSweepVal
}

// Runner executes suite runs by submitting one sweep job per (trace,
// prefetcher, config) run spec to a shared scheduler. The scheduler
// keys jobs by RunSpec.ID, so concurrent experiments that reuse a run
// — most often the baseline of a shared system configuration —
// simulate it once per trace. Runners are safe for concurrent use.
//
// A Runner built with NewRunnerRemote submits the same run specs to a
// pmpsweepd coordinator instead of the in-process pool; everything
// downstream (dedup, baselines, table assembly) is unchanged, and the
// results are byte-identical by the sweep's determinism invariant.
type Runner struct {
	Scale Scale
	specs []trace.Spec
	// sweep, homo and pool return the other trace lists experiments
	// draw from: the sweep subset of the parameter sweeps, Fig 13's
	// homogeneous traces, and the pool that Fig 13's and HETM's
	// heterogeneous mixes draw from by MPKI class. They are built on
	// use: each of a scale's lists rebuilds the 125-trace suite, which a
	// runner that never runs those tables, such as one WithSpecs
	// replaces, would pay for nothing.
	sweep, homo, pool func() []trace.Spec
	// runJobs resolves a batch of run specs on the runner's scheduler
	// and returns each run's per-core results, in order. A canceled
	// sweep unwinds via a sweep.Interrupted panic, recovered at the
	// experiment driver.
	runJobs func(jobs []runspec.RunSpec) [][]sim.Result
}

// NewRunner builds a Runner for the scale on the process-wide shared
// sweep (no results store).
func NewRunner(scale Scale) *Runner {
	return NewRunnerWith(scale, defaultSweep())
}

// NewRunnerWith builds a Runner submitting to the given sweep, e.g. a
// store-backed one created by cmd/pmpexperiments for resumable runs.
// Each job is built through BuildRun; an unbuildable one is an
// experiment's programming error, not a job failure, so it panics.
func NewRunnerWith(scale Scale, sw *sweep.Sweep) *Runner {
	return newRunner(scale, func(jobs []runspec.RunSpec) [][]sim.Result {
		tickets := make([]*sweep.Ticket, len(jobs))
		for i, rs := range jobs {
			run, err := BuildRun(rs)
			if err != nil {
				panic(fmt.Sprintf("bench: build %s: %v", rs.Label(), err))
			}
			tickets[i] = sw.Submit(sweep.Job{Spec: rs, Run: run})
		}
		out := make([][]sim.Result, len(tickets))
		for i, t := range tickets {
			rec, err := t.Wait()
			if err != nil {
				panic(sweep.Interrupted{Err: err})
			}
			out[i] = rec.Runs()
		}
		return out
	})
}

// NewRunnerRemote builds a Runner that submits its jobs to a running
// pmpsweepd coordinator (cmd/pmpexperiments -remote). The coordinator
// keeps its jobs in a sweep too, so cross-experiment dedup by job ID
// survives the network hop. The context governs submission and
// polling; canceling it, or a submission or polling failure, unwinds
// experiments through the usual sweep.Interrupted path.
func NewRunnerRemote(ctx context.Context, scale Scale, rc *remote.Client) *Runner {
	return newRunner(scale, func(jobs []runspec.RunSpec) [][]sim.Result {
		if err := rc.Submit(ctx, jobs); err != nil {
			panic(sweep.Interrupted{Err: err})
		}
		recs, err := rc.Wait(ctx, jobs)
		if err != nil {
			panic(sweep.Interrupted{Err: err})
		}
		out := make([][]sim.Result, len(jobs))
		for i, rs := range jobs {
			out[i] = recs[rs.ID()].Runs()
		}
		return out
	})
}

// newRunner builds a Runner over the scale's trace lists: its
// Representative subset, the sweep subset (Representative(8), 7 traces
// at DefaultScale), Representative(4) for Fig 13's homogeneous mixes,
// and the whole suite as the mix pool.
func newRunner(scale Scale, runJobs func([]runspec.RunSpec) [][]sim.Result) *Runner {
	return &Runner{
		Scale:   scale,
		specs:   scale.Specs(),
		sweep:   func() []trace.Spec { return trace.Representative(min(scale.Traces, 8)) },
		homo:    func() []trace.Spec { return trace.Representative(min(scale.Traces, 4)) },
		pool:    trace.Suite,
		runJobs: runJobs,
	}
}

// Specs returns the runner's trace subset.
func (r *Runner) Specs() []trace.Spec { return r.specs }

// mixPicker draws heterogeneous mix members from the runner's pool by
// MPKI class: pick(class, i) is the class's i-th pool trace, cycling.
// A class with no trace in the pool draws from the whole pool.
func (r *Runner) mixPicker() func(class trace.MPKIClass, i int) trace.Spec {
	pool := r.pool()
	byClass := trace.ByClass(pool)
	return func(class trace.MPKIClass, i int) trace.Spec {
		specs := byClass[class]
		if len(specs) == 0 {
			specs = pool
		}
		return specs[i%len(specs)]
	}
}

// traceRef renders a trace spec as its wire reference.
func traceRef(sp trace.Spec) runspec.TraceRef {
	return runspec.TraceRef{Name: sp.Name, File: sp.File}
}

// suiteRun simulates every suite trace on a single core with the
// variant plus optional per-level placements, one run spec per trace.
// The caller fills Baseline.
func (r *Runner) suiteRun(v VariantSpec, placements []runspec.Placement, cfg sim.Config) SuiteResult {
	jobs := make([]runspec.RunSpec, len(r.specs))
	for i, sp := range r.specs {
		jobs[i] = runspec.RunSpec{
			Cores:      []runspec.CoreSpec{{Trace: traceRef(sp), Variant: v}},
			Placements: placements,
			Records:    r.Scale.Records,
			Config:     cfg,
		}
	}
	res := SuiteResult{Specs: r.specs, Results: make([]sim.Result, len(jobs))}
	for i, s := range r.runJobs(jobs) {
		res.Results[i] = s[0]
	}
	return res
}

// Baseline returns the non-prefetching results for the configuration:
// the suite under the registry design "none". Baselines are ordinary
// sweep jobs, so concurrent callers share one simulation per trace
// through the sweep's dedup table, and a store-backed run persists and
// resumes them like any other job.
func (r *Runner) Baseline(cfg sim.Config) []sim.Result {
	return r.suiteRun(RegistryVariant(NameNone), nil, cfg).Results
}

// Run simulates every suite trace with fresh instances of the named
// registry design; experiments with typed configurations in hand use
// RunPlaced instead.
func (r *Runner) Run(name string, cfg sim.Config) SuiteResult {
	return r.RunPlaced(RegistryVariant(name), nil, cfg)
}

// RunPlaced simulates every suite trace with the core variant plus
// extra per-level prefetcher placements (e.g. the §V-B row runs a
// "none" core with the original Bingo placed at the LLC), alongside
// the baseline of the same configuration.
func (r *Runner) RunPlaced(v VariantSpec, placements []runspec.Placement, cfg sim.Config) SuiteResult {
	base := r.Baseline(cfg)
	res := r.suiteRun(v, placements, cfg)
	res.Baseline = base
	return res
}

// --- Table rendering ---

// Table is a rendered experiment artifact: the rows the paper reports.
type Table struct {
	ID     string // experiment id from DESIGN.md (e.g. "F8")
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header + rows;
// notes become trailing comment lines).
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func kbytes(bytes float64) string { return fmt.Sprintf("%.1f KB", bytes/1024) }
