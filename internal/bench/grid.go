package bench

import (
	"slices"

	"pmp/internal/core"
	"pmp/internal/runspec"
	"pmp/internal/sim"
)

// A grid is a variant-by-configuration table on the sweep subset: every
// row runs under every column, and each run renders as the cell
// renderer's cells. Most of the paper's design-space evidence (Tables
// VIII–XI, Fig 12) is a grid, and so are the sweep-subset extensions.
// A grid's rows are the one list of the variants it submits;
// ExperimentVariants reads them from the index.
type grid struct {
	id, title string
	header    []string
	rows      []gridRow
	// cols derive each column's machine from the scale's; nil is one
	// column on the scale's own machine.
	cols  []func(sim.Config) sim.Config
	cell  func(SuiteResult) []string
	notes []string
}

// A gridRow is one row of a grid: its leading cells, the variant every
// core trains plus optional per-level placements, and trailing cells
// that describe the design (its storage).
type gridRow struct {
	lead  []string
	core  VariantSpec
	place []runspec.Placement
	tail  []string
}

// run renders the grid on the runner's sweep subset, row by row.
func (g *grid) run(r *Runner) *Table {
	sw := r.subRunner()
	base := sw.Scale.Config()
	cfgs := []sim.Config{base}
	if g.cols != nil {
		cfgs = make([]sim.Config, len(g.cols))
		for i, col := range g.cols {
			cfgs[i] = col(base)
		}
	}
	t := &Table{ID: g.id, Title: g.title, Header: slices.Clone(g.header), Notes: slices.Clone(g.notes)}
	for _, row := range g.rows {
		cells := slices.Clone(row.lead)
		for _, cfg := range cfgs {
			cells = append(cells, g.cell(sw.RunPlaced(row.core, row.place, cfg))...)
		}
		t.AddRow(append(cells, row.tail...)...)
	}
	return t
}

// axis returns one column per value: the scale's machine with the
// value applied, such as sim.Config.WithBandwidth over transfer rates.
func axis[T any](with func(sim.Config, T) sim.Config, vals ...T) []func(sim.Config) sim.Config {
	cols := make([]func(sim.Config) sim.Config, len(vals))
	for i, v := range vals {
		cols[i] = func(c sim.Config) sim.Config { return with(c, v) }
	}
	return cols
}

// sweepRows returns one grid row per swept value.
func sweepRows[T any](vals []T, row func(T) gridRow) []gridRow {
	rows := make([]gridRow, len(vals))
	for i, v := range vals {
		rows[i] = row(v)
	}
	return rows
}

// registryRow is a row running the named registry design, labeled by
// its name.
func registryRow(name string) gridRow {
	return gridRow{lead: []string{name}, core: RegistryVariant(name)}
}

// pmpRow is a row running the PMP variant of the given name (see
// PMPVariant), labeled by that name.
func pmpRow(name string, mut func(*core.Config)) gridRow {
	return gridRow{lead: []string{name}, core: PMPVariant(name, mut)}
}

// The two cell renderers: geomean NIPC, and NIPC with mean NMT.
func nipcCell(res SuiteResult) []string    { return []string{f3(res.NIPC())} }
func nipcNMTCell(res SuiteResult) []string { return []string{f3(res.NIPC()), pct(res.NMT())} }
