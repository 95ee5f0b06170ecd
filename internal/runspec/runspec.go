// Package runspec defines the declarative, serializable description of
// one simulation run: which traces drive which cores, which prefetcher
// variant each core trains, and which extra variants attach at which
// cache levels. It is the single vocabulary shared by the serial
// runner, the local sweep pool, and the distributed wire protocol —
// a run is *described* here and *constructed* exactly once, in
// bench.BuildRun, no matter which scheduler executes it.
//
// A RunSpec is also the run's identity: ID hashes the whole spec, and
// Name, Label and TraceKey render it for tables and store records.
//
// The package is a leaf: it depends only on the design-config packages
// (core, bingo) and sim, never on bench or sweep, so the wire protocol
// (internal/sweep/remote) can carry these types without an import
// cycle.
package runspec

import (
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
// Name labels the variant in tables, job labels and store records
// (`pmp-tw8`, `designb-32w`, `bingo@llc`, ablation literals, …);
// bench.ParseVariant looks a name up among the variants experiments
// submit. It is hashed into RunSpec.ID with the rest of the spec, but
// the typed fields carry the construction itself; nothing parses Name.
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
// JSON-stable and constructible anywhere — and it is the job itself:
// the distributed protocol ships it bare, ID keys it, and bench.BuildRun
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

// Name renders the run's prefetchers for labels and store records: the
// core variants' names, comma-separated with runs of one name collapsed
// (so a homogeneous mix shows one name), then "+<name>@L<level>" for
// each placement. An unplaced single-core run is its variant's name.
func (rs RunSpec) Name() string {
	var sb strings.Builder
	for i, c := range rs.Cores {
		if i > 0 && c.Variant.Name == rs.Cores[i-1].Variant.Name {
			continue
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(c.Variant.Name)
	}
	for _, p := range rs.Placements {
		fmt.Fprintf(&sb, "+%s@L%d", p.Variant.Name, p.Level)
	}
	return sb.String()
}

// Label is the run's human-readable form, Name()/TraceKey(), shown by
// progress reporting and logs.
func (rs RunSpec) Label() string { return rs.Name() + "/" + rs.TraceKey() }

// TraceKey renders the run's traces for labels and store records: the
// single trace name for single-core runs, or a deterministic mix label
// for multicore runs.
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
