package bench

import (
	"fmt"
	"slices"

	"pmp/internal/core"
	"pmp/internal/runspec"
)

// VariantSpec is the declarative prefetcher-construction spec
// (re-exported from internal/runspec, the wire vocabulary): a registry
// name or a typed configuration for one of the parameterized families,
// under the name that labels it in tables and store records.
// Experiments build specs with the constructors below and the grid
// tables' rows; ParseVariant looks a name up among them for the pmpsim
// -pf flag.
type VariantSpec = runspec.VariantSpec

// RegistryVariant names a stock design from the fixed registry.
func RegistryVariant(name string) VariantSpec {
	return VariantSpec{Name: name, Registry: name}
}

// PMPVariant derives a PMP variant: the default configuration with mut
// applied, under the given name.
func PMPVariant(name string, mut func(*core.Config)) VariantSpec {
	c := core.DefaultConfig()
	if mut != nil {
		mut(&c)
	}
	return VariantSpec{Name: name, PMP: &c}
}

// BingoLLCVariant is the original (non-doubled) DPC-3 Bingo — half the
// enhanced pattern table — that the paper places at the LLC in §V-B.
func BingoLLCVariant() VariantSpec {
	c := bingoOriginalConfig()
	return VariantSpec{Name: "bingo@llc", Bingo: &c}
}

// ParseVariant returns the variant of the given name: a registry
// design, or one of ExperimentVariants (for example "designb-32w",
// "pmp-tw8" or "pmp-0.5-0.15"). It is CLI sugar (pmpsim -pf) and off
// the run path: the runner takes registry names or typed specs.
// Unknown names are an error, so a stale caller fails loudly instead
// of silently describing the wrong design.
func ParseVariant(name string) (VariantSpec, error) {
	for _, v := range ExperimentVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	return VariantSpec{}, fmt.Errorf("bench: unknown prefetcher variant %q", name)
}

// ExperimentVariants returns every variant spec any registered
// experiment submits, under its wire name: the registry lineup, the
// original LLC Bingo, and the core variant of every grid table's rows
// (the first of each name), read from the index. Names are unique, so
// ParseVariant can look them up.
func ExperimentVariants() []VariantSpec {
	out := []VariantSpec{BingoLLCVariant()}
	for _, name := range Names() {
		out = append(out, RegistryVariant(name))
	}
	for _, e := range Experiments(nil) {
		if e.grid == nil {
			continue
		}
		for _, row := range e.grid.rows {
			if !slices.ContainsFunc(out, func(v VariantSpec) bool { return v.Name == row.core.Name }) {
				out = append(out, row.core)
			}
		}
	}
	return out
}
