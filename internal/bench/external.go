package bench

import (
	"strings"

	"pmp/internal/trace"
)

// External workloads: manifest-listed .pmpt traces (converted from
// ChampSim/DPC sets by `pmptrace convert`) run through the same Runner
// machinery as the synthetic suite. Their run specs carry the .pmpt
// path (runspec.TraceRef.File), so any worker resolves them without
// the manifest.

// WithSpecs returns a Runner over the given trace specs instead of the
// scale's synthetic subset, sharing this runner's scheduler (local pool
// or remote coordinator) and scale. The specs are every list its
// experiments draw from: the suite, the sweep subset and the mix pool,
// and their first four are Fig 13's homogeneous traces. This is how an
// external manifest rides the experiment harness:
// bench.External(r.WithSpecs(specs)).
func (r *Runner) WithSpecs(specs []trace.Spec) *Runner {
	all := func() []trace.Spec { return specs }
	return &Runner{Scale: r.Scale, specs: specs, sweep: all, pool: all,
		homo: func() []trace.Spec { return specs[:min(len(specs), 4)] }, runJobs: r.runJobs}
}

// External is the EXTW experiment: the full prefetcher registry (the
// paper's five evaluated designs plus the related-work lineup) over the
// runner's trace set — normally a manifest of converted real workloads
// via WithSpecs. Each row reports geomean NIPC and mean normalized
// memory traffic against the no-prefetch baseline of the same traces.
func External(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:     "EXTW",
		Title:  "External workloads: full registry over manifest traces (extension)",
		Header: []string{"Prefetcher", "NIPC", "NMT"},
	}
	names := append(EvalNames(), RelatedNames()...)
	for _, name := range names {
		res := r.Run(name, cfg)
		t.AddRow(name, f3(res.NIPC()), pct(res.NMT()))
	}
	traces := make([]string, len(r.specs))
	for i, sp := range r.specs {
		traces[i] = sp.Name
	}
	t.Notes = append(t.Notes,
		"traces: "+strings.Join(traces, ", "),
		"convert ChampSim/DPC sets with `pmptrace convert` and list them in a manifest (docs/traces.md)")
	return t
}
