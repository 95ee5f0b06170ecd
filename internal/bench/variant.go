package bench

import (
	"fmt"

	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/runspec"
)

// VariantSpec is the declarative prefetcher-construction spec
// (re-exported from internal/runspec, the wire vocabulary): a registry
// name or a typed configuration for one of the parameterized families,
// under the name that labels it in tables and store records.
// Experiments build specs with the constructors below; ParseVariant
// looks a name up among them for the pmpsim -pf flag.
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

// DesignBVariant is the paper's Design B (Table VIII) at the given
// pattern-table associativity.
func DesignBVariant(ways int) VariantSpec {
	c := core.DefaultDesignBConfig()
	c.Ways = ways
	return VariantSpec{Name: fmt.Sprintf("designb-%dw", ways), DesignB: &c}
}

// BingoLLCVariant is the original (non-doubled) DPC-3 Bingo — half the
// enhanced pattern table — that the paper places at the LLC in §V-B.
func BingoLLCVariant() VariantSpec {
	c := bingoOriginalConfig()
	return VariantSpec{Name: "bingo@llc", Bingo: &c}
}

// The experiment parameter spaces. The sweep tables in experiments.go
// and ExperimentVariants below iterate the same slices, so ParseVariant
// knows exactly the variants experiments submit.
var (
	designBWays      = []int{8, 32, 128, 512}
	pmpRegionBytes   = []int{4096, 2048, 1024}
	pmpTriggerBits   = []int{6, 7, 8, 9, 10, 11, 12}
	pmpCounterBits   = []int{2, 3, 4, 5, 6, 7, 8}
	pmpMonitorRanges = []int{1, 2, 4, 8}
	pmpThresholds    = [][2]float64{
		{0.25, 0.15}, {0.50, 0.15}, {0.75, 0.15},
		{0.50, 0.05}, {0.50, 0.30}, {0.75, 0.50},
	}
	pmpSchemes      = []core.Scheme{core.AFE, core.ANE, core.ARE}
	pmpFeatureModes = []core.FeatureMode{core.DualTables, core.Combined, core.OPTOnly, core.PPTOnly}
)

// pmpAblations is the ordered ablation lineup. The names label the
// ABL rows and their store records, and ParseVariant accepts them.
var pmpAblations = []struct {
	Name string
	Mut  func(*core.Config)
}{
	{"pmp (default)", func(*core.Config) {}},
	{"no halving (frozen counters)", func(c *core.Config) { c.NoHalving = true }},
	{"no PB resume", func(c *core.Config) { c.NoResume = true }},
	{"no halving + no resume", func(c *core.Config) { c.NoHalving = true; c.NoResume = true }},
	{"cross-region projection", func(c *core.Config) { c.CrossRegion = true }},
}

func schemeVariant(sc core.Scheme) VariantSpec {
	return PMPVariant("pmp-"+sc.String(), func(c *core.Config) { c.Scheme = sc })
}

func featureVariant(fm core.FeatureMode) VariantSpec {
	return PMPVariant("pmp-"+fm.String(), func(c *core.Config) { c.Feature = fm })
}

func twVariant(bits int) VariantSpec {
	return PMPVariant(fmt.Sprintf("pmp-tw%d", bits), func(c *core.Config) { c.TriggerBits = bits })
}

func csVariant(bits int) VariantSpec {
	return PMPVariant(fmt.Sprintf("pmp-cs%d", bits), func(c *core.Config) { c.OPTCounterBits = bits })
}

func mrVariant(rng int) VariantSpec {
	return PMPVariant(fmt.Sprintf("pmp-mr%d", rng), func(c *core.Config) { c.MonitoringRange = rng })
}

func thresholdVariant(l1, l2 float64) VariantSpec {
	return PMPVariant(fmt.Sprintf("pmp-%g-%g", l1, l2), func(c *core.Config) { c.TL1D, c.TL2C = l1, l2 })
}

func regionVariant(regionBytes int) VariantSpec {
	return PMPVariant(fmt.Sprintf("pmp-%d", regionBytes/mem.LineBytes),
		func(c *core.Config) { c.RegionBytes = regionBytes })
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
// ablation literals, the original LLC Bingo, and the full parameter
// sweeps. Names are unique, so ParseVariant can look them up.
func ExperimentVariants() []VariantSpec {
	var out []VariantSpec
	for _, name := range Names() {
		out = append(out, RegistryVariant(name))
	}
	for _, ab := range pmpAblations {
		out = append(out, PMPVariant(ab.Name, ab.Mut))
	}
	out = append(out, BingoLLCVariant())
	for _, w := range designBWays {
		out = append(out, DesignBVariant(w))
	}
	for _, sc := range pmpSchemes {
		out = append(out, schemeVariant(sc))
	}
	for _, fm := range pmpFeatureModes {
		out = append(out, featureVariant(fm))
	}
	for _, b := range pmpTriggerBits {
		out = append(out, twVariant(b))
	}
	for _, b := range pmpCounterBits {
		out = append(out, csVariant(b))
	}
	for _, m := range pmpMonitorRanges {
		out = append(out, mrVariant(m))
	}
	for _, p := range pmpThresholds {
		out = append(out, thresholdVariant(p[0], p[1]))
	}
	for _, reg := range pmpRegionBytes {
		out = append(out, regionVariant(reg))
	}
	return out
}
