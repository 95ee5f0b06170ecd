// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (see DESIGN.md §5 for the full
// index). Each runner executes the required simulations and returns a
// Table whose rows mirror what the paper reports, so the repository's
// benchmarks and the pmpexperiments command regenerate every artifact.
package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/prefetchers/bop"
	"pmp/internal/prefetchers/dspatch"
	"pmp/internal/prefetchers/ghb"
	"pmp/internal/prefetchers/isb"
	"pmp/internal/prefetchers/misb"
	"pmp/internal/prefetchers/nextline"
	"pmp/internal/prefetchers/pythia"
	"pmp/internal/prefetchers/sandbox"
	"pmp/internal/prefetchers/smsref"
	"pmp/internal/prefetchers/spp"
	"pmp/internal/prefetchers/stride"
	"pmp/internal/prefetchers/triage"
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
	Traces  int    // suite traces used (Representative subset)
	Records int    // trace records generated per trace
	Warmup  uint64 // warm-up instructions
	Measure uint64 // measured instructions (0 = rest of trace)
}

// QuickScale is sized for unit tests and smoke benchmarks.
func QuickScale() Scale {
	return Scale{Traces: 6, Records: 60_000, Warmup: 40_000, Measure: 150_000}
}

// DefaultScale is the standard reduced evaluation.
func DefaultScale() Scale {
	return Scale{Traces: 16, Records: 250_000, Warmup: 150_000, Measure: 800_000}
}

// FullScale runs the complete 125-trace suite (hours, not minutes).
func FullScale() Scale {
	return Scale{Traces: 125, Records: 2_000_000, Warmup: 2_000_000, Measure: 8_000_000}
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
	NameGHB      = "ghb"
	NameISB      = "isb"
	NameMISB     = "misb"
	NameTriage   = "triage"
)

// EvalNames returns the paper's five evaluated prefetchers in
// presentation order.
func EvalNames() []string {
	return []string{NameDSPatch, NameBingo, NameSPPPPF, NamePythia, NamePMP}
}

// RelatedNames returns the additional prefetchers from the paper's
// related-work section implemented in this repository.
func RelatedNames() []string {
	return []string{
		NameNextline, NameStride, NameBOP, NameSandbox, NameVLDP,
		NameSMS, NameGHB, NameISB, NameMISB, NameTriage,
	}
}

// Names lists every registered prefetcher name.
func Names() []string {
	return []string{
		NameNone, NameNextline, NameStride, NameBOP, NameSandbox, NameVLDP,
		NameSMS, NameGHB, NameISB, NameMISB, NameTriage, NameDSPatch,
		NameBingo, NameSPPPPF, NamePythia, NamePMP, NamePMPLimit,
	}
}

// TryNewPrefetcher constructs a prefetcher by name, reporting unknown
// names as an error (for CLI surfaces).
func TryNewPrefetcher(name string) (pf prefetch.Prefetcher, err error) {
	for _, known := range Names() {
		if name == known {
			return NewPrefetcher(name), nil
		}
	}
	return nil, fmt.Errorf("unknown prefetcher %q (known: %s)", name, strings.Join(Names(), ", "))
}

// NewPrefetcher constructs a fresh prefetcher by name; it panics on an
// unknown name (the registry is fixed). CLI surfaces should prefer
// TryNewPrefetcher.
func NewPrefetcher(name string) prefetch.Prefetcher {
	switch name {
	case NameNone:
		return prefetch.Nop{}
	case NameNextline:
		return nextline.New(1)
	case NameStride:
		return stride.New(stride.DefaultConfig())
	case NameBOP:
		return bop.New(bop.DefaultConfig())
	case NameSandbox:
		return sandbox.New(sandbox.DefaultConfig())
	case NameVLDP:
		return vldp.New(vldp.DefaultConfig())
	case NameSMS:
		return smsref.New(smsref.DefaultConfig())
	case NameGHB:
		return ghb.New(ghb.DefaultConfig())
	case NameISB:
		return isb.New(isb.DefaultConfig())
	case NameMISB:
		return misb.New(misb.DefaultConfig())
	case NameTriage:
		return triage.New(triage.DefaultConfig())
	case NameDSPatch:
		return dspatch.New(dspatch.DefaultConfig())
	case NameBingo:
		return bingo.New(bingo.DefaultConfig())
	case NameSPPPPF:
		return spp.New(spp.DefaultConfig())
	case NamePythia:
		return pythia.New(pythia.DefaultConfig())
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
	Name     string
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
// bounded worker pool and one job-dedup table shared by every such
// Runner in the process. It has no results store and is never closed.
var (
	defaultSweepOnce sync.Once
	defaultSweepVal  *sweep.Sweep
)

func defaultSweep() *sweep.Sweep {
	defaultSweepOnce.Do(func() {
		defaultSweepVal = sweep.New(context.Background(), sweep.Options{})
	})
	return defaultSweepVal
}

// Runner executes suite runs by submitting one sweep job per (trace,
// prefetcher, config) triple to a shared scheduler, with a
// singleflight baseline cache so concurrent experiments that reuse
// the same system configuration only simulate the baseline once per
// trace. Runners are safe for concurrent use.
//
// A Runner built with NewRunnerRemote submits the same jobs as wire
// specs to a pmpsweepd coordinator instead of the in-process pool;
// everything downstream (dedup, baselines, table assembly) is
// unchanged, and the results are byte-identical by the sweep's
// determinism invariant.
type Runner struct {
	Scale Scale
	specs []trace.Spec
	sw    *sweep.Sweep

	rc  *remote.Client  // non-nil: submit to a coordinator instead of sw
	ctx context.Context // governs remote submission/polling

	mu   sync.Mutex
	base map[string]*baseline // config fingerprint -> baseline singleflight
}

// baseline is one singleflight slot of the baseline cache: the first
// caller computes res inside once, every other caller blocks on it.
type baseline struct {
	once sync.Once
	res  []sim.Result
}

// NewRunner builds a Runner for the scale on the process-wide shared
// sweep (no results store).
func NewRunner(scale Scale) *Runner {
	return NewRunnerWith(scale, defaultSweep())
}

// NewRunnerWith builds a Runner submitting to the given sweep, e.g. a
// store-backed one created by cmd/pmpexperiments for resumable runs.
func NewRunnerWith(scale Scale, sw *sweep.Sweep) *Runner {
	return &Runner{
		Scale: scale,
		specs: scale.Specs(),
		sw:    sw,
		base:  map[string]*baseline{},
	}
}

// NewRunnerRemote builds a Runner that submits its jobs to a running
// pmpsweepd coordinator (cmd/pmpexperiments -remote). The context
// governs submission and polling; canceling it unwinds experiments
// through the usual sweep.Interrupted path.
func NewRunnerRemote(ctx context.Context, scale Scale, rc *remote.Client) *Runner {
	return &Runner{
		Scale: scale,
		specs: scale.Specs(),
		rc:    rc,
		ctx:   ctx,
		base:  map[string]*baseline{},
	}
}

// Specs returns the runner's trace subset.
func (r *Runner) Specs() []trace.Spec { return r.specs }

// specJob pairs a sweep job's identity name with its declarative run
// spec. The name keys job identity together with the spec's trace key,
// record count and config fingerprint — exactly the tuple legacy jobs
// used — so identical jobs submitted by other experiments (or by
// pre-spec store files) deduplicate against it.
type specJob struct {
	name string
	run  runspec.RunSpec
}

// traceRef renders a trace spec as its wire reference.
func traceRef(sp trace.Spec) runspec.TraceRef {
	return runspec.TraceRef{Name: sp.Name, File: sp.File}
}

// recResults extracts a record's per-core results: the multicore
// result set when present, else the single-core result (zero for a
// quarantined job, so the suite — and the rest of the sweep — keeps
// going).
func recResults(rec sweep.Record) []sim.Result {
	if len(rec.Results) > 0 {
		return rec.Results
	}
	return []sim.Result{rec.Result}
}

// runSpecs submits one sweep job per spec and waits for all results in
// order, returning each job's per-core result set. Local runners build
// executables through BuildRun and submit to the shared pool; remote
// runners ship the specs themselves to the coordinator. A canceled
// sweep unwinds via a sweep.Interrupted panic, recovered at the
// experiment driver.
func (r *Runner) runSpecs(jobs []specJob) [][]sim.Result {
	if r.rc != nil {
		return r.runSpecsRemote(jobs)
	}
	tickets := make([]*sweep.Ticket, len(jobs))
	for i, j := range jobs {
		key := j.run.TraceKey()
		exec, err := BuildRun(j.run)
		if err != nil {
			// Local specs are experiment-constructed; an unbuildable one
			// is a programming error, not a job failure.
			panic(fmt.Sprintf("bench: build %s/%s: %v", j.name, key, err))
		}
		tickets[i] = r.sw.Submit(sweep.Job{
			ID:         sweep.JobID(j.name, key, j.run.Records, j.run.Config.Fingerprint()),
			Label:      j.name + "/" + key,
			Prefetcher: j.name,
			Trace:      key,
			Run:        exec.Run,
			RunMulti:   exec.RunMulti,
		})
	}
	out := make([][]sim.Result, len(tickets))
	for i, t := range tickets {
		rec, err := t.Wait()
		if err != nil {
			panic(sweep.Interrupted{Err: err})
		}
		out[i] = recResults(rec)
	}
	return out
}

// runSpecsRemote submits the same job set as wire specs to the
// coordinator and polls for the records. The coordinator deduplicates
// by job ID exactly like the in-process sweep, so cross-experiment
// sharing survives the network hop; submission and polling failures
// unwind via sweep.Interrupted like a canceled local sweep.
func (r *Runner) runSpecsRemote(jobs []specJob) [][]sim.Result {
	specs := make([]remote.JobSpec, len(jobs))
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		key := j.run.TraceKey()
		ids[i] = sweep.JobID(j.name, key, j.run.Records, j.run.Config.Fingerprint())
		specs[i] = remote.JobSpec{
			ID:         ids[i],
			Label:      j.name + "/" + key,
			Prefetcher: j.name,
			Trace:      key,
			Run:        j.run,
		}
	}
	if _, err := r.rc.Submit(r.ctx, specs); err != nil {
		panic(sweep.Interrupted{Err: err})
	}
	recs, err := r.rc.Wait(r.ctx, ids)
	if err != nil {
		panic(sweep.Interrupted{Err: err})
	}
	out := make([][]sim.Result, len(ids))
	for i, id := range ids {
		out[i] = recResults(recs[id])
	}
	return out
}

// suiteRun simulates every suite trace on a single core with the
// variant (plus optional per-level placements) under the given job
// name, returning one result per trace.
func (r *Runner) suiteRun(name string, v VariantSpec, placements []runspec.Placement, cfg sim.Config) []sim.Result {
	jobs := make([]specJob, len(r.specs))
	for i, sp := range r.specs {
		jobs[i] = specJob{name: name, run: runspec.RunSpec{
			Cores:      []runspec.CoreSpec{{Trace: traceRef(sp), Variant: v}},
			Placements: placements,
			Records:    r.Scale.Records,
			Config:     cfg,
		}}
	}
	sets := r.runSpecs(jobs)
	res := make([]sim.Result, len(sets))
	for i, s := range sets {
		res[i] = s[0]
	}
	return res
}

// Baseline returns (computing if needed) the non-prefetching results
// for the configuration. Baselines are sweep jobs under the name
// "none", so a store-backed run persists them keyed by the config
// fingerprint and a resumed run skips them like any other job.
func (r *Runner) Baseline(cfg sim.Config) []sim.Result {
	key := cfg.Fingerprint()
	r.mu.Lock()
	b := r.base[key]
	if b == nil {
		b = &baseline{}
		r.base[key] = b
	}
	r.mu.Unlock()
	b.once.Do(func() {
		b.res = r.suiteRun(NameNone, RegistryVariant(NameNone), nil, cfg)
	})
	return b.res
}

// Run simulates every suite trace with fresh instances of the named
// design. The name may be any grammar name — a registry entry or a
// parameterized variant such as "pmp-tw8"; experiments with typed
// configurations in hand use RunVariant instead.
func (r *Runner) Run(name string, cfg sim.Config) SuiteResult {
	v, err := ParseVariant(name)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return r.RunVariant(v, cfg)
}

// RunVariant simulates every suite trace with the variant spec.
func (r *Runner) RunVariant(v VariantSpec, cfg sim.Config) SuiteResult {
	return r.RunPlaced(v.Name, v, nil, cfg)
}

// RunPlaced simulates every suite trace with the core variant plus
// extra per-level prefetcher placements, under an explicit job name
// (placements are part of the run, not of any single variant, so the
// caller names the combination — e.g. the §V-B "bingo@llc" row runs a
// "none" core with the original Bingo placed at the LLC).
func (r *Runner) RunPlaced(name string, v VariantSpec, placements []runspec.Placement, cfg sim.Config) SuiteResult {
	return SuiteResult{
		Name:     name,
		Specs:    r.specs,
		Baseline: r.Baseline(cfg),
		Results:  r.suiteRun(name, v, placements, cfg),
	}
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

func sortedFamilies(m map[trace.Family]float64) []trace.Family {
	fams := make([]trace.Family, 0, len(m))
	for f := range m {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	return fams
}
