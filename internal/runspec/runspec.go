// Package runspec defines the declarative, serializable description of
// one simulation run: which traces drive which cores, which prefetcher
// variant each core trains, and which extra variants attach at which
// cache levels. It is the single vocabulary shared by the serial
// runner, the local sweep pool, and the distributed wire protocol —
// a run is *described* here and *constructed* exactly once, in
// bench.BuildRun, no matter which scheduler executes it.
//
// The package is a leaf: it depends only on the design-config packages
// (core, bingo) and sim, never on bench or sweep, so the wire protocol
// (internal/sweep/remote) can embed these types without an import
// cycle.
package runspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"pmp/internal/core"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/sim"
)

// VariantSpec names one prefetcher construction: either a registry
// design by name, or a typed configuration for one of the
// parameterized families (PMP, Design B, Bingo). Exactly one of the
// four fields besides Name must be set.
//
// Name is the variant's wire identity — the same legacy grammar string
// (`pmp-tw8`, `designb-32w`, `bingo@llc`, ablation literals, …) that
// keyed job IDs before specs existed, so stores and -resume files
// written by older builds keep resolving. The typed fields carry the
// construction itself; nothing parses Name at run time.
type VariantSpec struct {
	Name     string              `json:"name"`
	Registry string              `json:"registry,omitempty"`
	PMP      *core.Config        `json:"pmp,omitempty"`
	DesignB  *core.DesignBConfig `json:"designb,omitempty"`
	Bingo    *bingo.Config       `json:"bingo,omitempty"`
}

// Validate reports the first error: a missing name, a variant that
// sets zero or several constructions, or a typed configuration its
// family's constructor would reject.
func (v VariantSpec) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("runspec: variant has no name")
	}
	n := 0
	if v.Registry != "" {
		n++
	}
	if v.PMP != nil {
		n++
	}
	if v.DesignB != nil {
		n++
	}
	if v.Bingo != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("runspec: variant %q must set exactly one of registry/pmp/designb/bingo, has %d", v.Name, n)
	}
	var err error
	switch {
	case v.PMP != nil:
		err = v.PMP.Validate()
	case v.DesignB != nil:
		err = v.DesignB.Validate()
	case v.Bingo != nil:
		err = v.Bingo.Validate()
	}
	if err != nil {
		return fmt.Errorf("runspec: variant %q: %w", v.Name, err)
	}
	return nil
}

// Fingerprint returns the canonical JSON rendering of the variant.
// Two variants with equal fingerprints construct identical
// prefetchers; the round-trip tests pin that the legacy name grammar
// and this rendering agree.
func (v VariantSpec) Fingerprint() string {
	b, err := json.Marshal(v)
	if err != nil { // all fields are plain data; cannot fail
		panic(err)
	}
	return string(b)
}

// TraceRef names one trace: a registered suite/external name, plus an
// optional file path for wire-shipped traces with no registry entry on
// the worker.
type TraceRef struct {
	Name string `json:"name"`
	File string `json:"file,omitempty"`
}

// CoreSpec assigns one core its trace and its trained (level-0)
// prefetcher variant.
type CoreSpec struct {
	Trace   TraceRef    `json:"trace"`
	Variant VariantSpec `json:"variant"`
}

// Placement attaches an extra prefetcher variant at a deeper cache
// level (1 = the level below L1D, hierarchy depth - 1 = the LLC) on
// every core. The attached variant trains on that level's accesses and
// fills that level, via a sim.AttachSpec passed to sim.NewMachineAt.
type Placement struct {
	Level   int         `json:"level"`
	Variant VariantSpec `json:"variant"`
}

// RunSpec describes one complete simulation run: N cores with their
// traces and variants, optional per-level placements, the record count
// per trace, and the full machine configuration. It is pure data —
// JSON-stable, comparable, and constructible anywhere — and BuildRun
// turns it into an executable job identically on every scheduler.
type RunSpec struct {
	Cores      []CoreSpec  `json:"cores"`
	Placements []Placement `json:"placements,omitempty"`
	Records    int         `json:"records"`
	Config     sim.Config  `json:"config"`

	// Replay enables multicore trace replay (traces wrap until every
	// core's measurement window completes); it requires a bounded
	// Config.Measure.
	Replay bool `json:"replay,omitempty"`
}

// Validate reports the first structural error. It is cheap — no
// construction, no trace resolution — so the coordinator can vet
// submissions without holding designs or traces itself.
func (rs RunSpec) Validate() error {
	if len(rs.Cores) == 0 {
		return fmt.Errorf("runspec: run has no cores")
	}
	for i, c := range rs.Cores {
		if c.Trace.Name == "" {
			return fmt.Errorf("runspec: core %d has no trace name", i)
		}
		if err := c.Variant.Validate(); err != nil {
			return fmt.Errorf("runspec: core %d: %w", i, err)
		}
	}
	depth := rs.Config.HierarchyDepth()
	for i, p := range rs.Placements {
		if p.Level < 1 || p.Level >= depth {
			return fmt.Errorf("runspec: placement %d level %d outside [1, %d) for a %d-level hierarchy",
				i, p.Level, depth, depth)
		}
		if err := p.Variant.Validate(); err != nil {
			return fmt.Errorf("runspec: placement %d: %w", i, err)
		}
	}
	if rs.Records <= 0 {
		return fmt.Errorf("runspec: records must be > 0, got %d", rs.Records)
	}
	if rs.Replay && rs.Config.Measure == 0 {
		return fmt.Errorf("runspec: trace replay requires a bounded measure window")
	}
	return rs.Config.Validate()
}

// TraceKey renders the run's trace identity for job IDs: the single
// trace name for single-core runs (so legacy store records keep
// matching), or a deterministic mix label for multicore runs.
func (rs RunSpec) TraceKey() string {
	if len(rs.Cores) == 1 {
		return rs.Cores[0].Trace.Name
	}
	names := make([]string, len(rs.Cores))
	for i, c := range rs.Cores {
		names[i] = c.Trace.Name
	}
	return "mix(" + strings.Join(names, ",") + ")"
}
