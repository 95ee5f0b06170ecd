package bench

import (
	"fmt"
	"strings"
	"sync"

	"pmp/internal/trace"
)

// External workloads: manifest-listed .pmpt traces (converted from
// ChampSim/DPC sets by `pmptrace convert`) run through the same Runner
// machinery as the synthetic suite. The specs register in a process
// index so TraceByName — and through it a pmpsweepd worker handed a
// spec name — resolves them like suite traces.

var (
	externalMu    sync.RWMutex
	externalIndex = map[string]trace.Spec{}
)

// RegisterExternal adds external trace specs to the process-wide trace
// index consulted by TraceByName. Registering a name twice replaces
// the earlier spec; shadowing a synthetic suite name is an error (the
// suite index wins there, which would make job identities ambiguous).
func RegisterExternal(specs []trace.Spec) error {
	for _, sp := range specs {
		if _, taken := suiteTrace(sp.Name); taken {
			return fmt.Errorf("bench: external trace %q shadows a synthetic suite trace", sp.Name)
		}
	}
	externalMu.Lock()
	defer externalMu.Unlock()
	for _, sp := range specs {
		externalIndex[sp.Name] = sp
	}
	return nil
}

// externalTrace resolves a registered external spec by name.
func externalTrace(name string) (trace.Spec, bool) {
	externalMu.RLock()
	defer externalMu.RUnlock()
	sp, ok := externalIndex[name]
	return sp, ok
}

// LoadExternal loads a verified external-suite manifest and registers
// its traces, returning the specs in manifest order.
func LoadExternal(path string) ([]trace.Spec, error) {
	specs, err := trace.LoadManifest(path)
	if err != nil {
		return nil, err
	}
	if err := RegisterExternal(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// WithSpecs returns a Runner over the given trace specs instead of the
// scale's synthetic subset, sharing this runner's scheduler (local pool
// or remote coordinator) and scale but with its own baseline cache —
// baselines are per trace set. This is how an external manifest rides
// the experiment harness: bench.External(r.WithSpecs(specs)).
func (r *Runner) WithSpecs(specs []trace.Spec) *Runner {
	return newRunner(r.Scale, specs, r.runJobs)
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
