package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pmp/internal/core"
	"pmp/internal/mem"
)

// The names have ambiguous-looking corners — "pmp-16" (a region
// sweep) vs "pmp-tw8" (a trigger-width sweep) vs "pmp-0.5-0.15" (a
// threshold pair), and ablation literals containing '+' and spaces.
// These pins make sure each lands on the intended knob and nothing
// else.
func TestParseVariantPins(t *testing.T) {
	def := core.DefaultConfig()
	cases := []struct {
		name  string
		check func(t *testing.T, v VariantSpec)
	}{
		{"pmp-0.5-0.15", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || v.PMP.TL1D != 0.5 || v.PMP.TL2C != 0.15 {
				t.Errorf("want thresholds 0.5/0.15, got %+v", v.PMP)
			}
		}},
		{"pmp-16", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || v.PMP.RegionBytes != 16*mem.LineBytes {
				t.Errorf("want region %d bytes, got %+v", 16*mem.LineBytes, v.PMP)
			}
			if v.PMP != nil && v.PMP.TriggerBits != def.TriggerBits {
				t.Errorf("pmp-16 must not touch TriggerBits: %+v", v.PMP)
			}
		}},
		{"pmp-32", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || v.PMP.RegionBytes != 2048 {
				t.Errorf("want region 2048 bytes, got %+v", v.PMP)
			}
		}},
		{"pmp-tw8", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || v.PMP.TriggerBits != 8 {
				t.Errorf("want TriggerBits 8, got %+v", v.PMP)
			}
			if v.PMP != nil && v.PMP.RegionBytes != def.RegionBytes {
				t.Errorf("pmp-tw8 must not touch RegionBytes: %+v", v.PMP)
			}
		}},
		{"no halving + no resume", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || !v.PMP.NoHalving || !v.PMP.NoResume {
				t.Errorf("want both ablation flags, got %+v", v.PMP)
			}
		}},
		{"pmp (default)", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || !reflect.DeepEqual(*v.PMP, def) {
				t.Errorf("want the default config, got %+v", v.PMP)
			}
		}},
		{"cross-region projection", func(t *testing.T, v VariantSpec) {
			if v.PMP == nil || !v.PMP.CrossRegion {
				t.Errorf("want CrossRegion, got %+v", v.PMP)
			}
		}},
		{"designb-32w", func(t *testing.T, v VariantSpec) {
			if v.DesignB == nil || v.DesignB.Ways != 32 {
				t.Errorf("want Design B with 32 ways, got %+v", v.DesignB)
			}
		}},
		{"bingo@llc", func(t *testing.T, v VariantSpec) {
			orig := bingoOriginalConfig()
			if v.Bingo == nil || !reflect.DeepEqual(*v.Bingo, orig) {
				t.Errorf("want the original Bingo config, got %+v", v.Bingo)
			}
		}},
		{NamePMP, func(t *testing.T, v VariantSpec) {
			if v.Registry != NamePMP {
				t.Errorf("registry name must parse as a registry variant, got %+v", v)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := ParseVariant(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if v.Name != tc.name {
				t.Errorf("parsed Name = %q, want %q", v.Name, tc.name)
			}
			tc.check(t, v)
		})
	}
}

// Unknown names must error, never fall back to some other design.
// That includes well-formed names that no experiment submits.
func TestParseVariantRejectsUnknown(t *testing.T) {
	for _, name := range []string{
		"", "frobnicate", "pmp-", "pmp-xyz", "pmp-tw", "pmp-1.0-zz",
		"designb-w", "designb-32", "bingo@l2",
		"pmp-8", "designb-64w", "pmp-tw13",
	} {
		if _, err := ParseVariant(name); err == nil {
			t.Errorf("ParseVariant(%q) resolved; want error", name)
		}
	}
}

// Every variant an experiment submits is valid, and ParseVariant
// returns it by name. A name that two distinct specs share would make
// the lookup return the wrong one, and fails here.
func TestExperimentVariantsRoundTrip(t *testing.T) {
	vars := ExperimentVariants()
	if len(vars) < 40 {
		t.Fatalf("only %d experiment variants; the sweeps should contribute dozens", len(vars))
	}
	for _, v := range vars {
		if err := v.Validate(); err != nil {
			t.Errorf("%q: invalid spec: %v", v.Name, err)
		}
		back, err := ParseVariant(v.Name)
		if err != nil {
			t.Errorf("ParseVariant(%q): %v", v.Name, err)
			continue
		}
		if !reflect.DeepEqual(back, v) {
			t.Errorf("name %q is ambiguous:\nspec  %+v\nparse %+v", v.Name, v, back)
		}
	}
}

// Every experiment variant constructs, and the construction honours the
// spec (fresh instances, correct design family).
func TestBuildVariantConstructsAll(t *testing.T) {
	for _, v := range ExperimentVariants() {
		pf, err := BuildVariant(v)
		if err != nil {
			t.Errorf("BuildVariant(%q): %v", v.Name, err)
			continue
		}
		if pf == nil {
			t.Errorf("BuildVariant(%q) = nil", v.Name)
		}
	}
	if _, err := BuildVariant(RegistryVariant("frobnicate")); err == nil {
		t.Error("unknown registry name accepted")
	}
}

// Every experiment variant must survive the wire: marshal → unmarshal
// keeps the run's ID, since the coordinator keys jobs by the IDs of
// the specs clients send. Distinct variants keep distinct IDs.
func TestVariantIDSurvivesJSON(t *testing.T) {
	cfg := QuickScale().Config()
	seen := map[string]string{}
	for _, v := range ExperimentVariants() {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back VariantSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		id := singleSpec("t", v, nil, cfg).ID()
		if singleSpec("t", back, nil, cfg).ID() != id {
			t.Errorf("%q: ID changed across JSON round-trip", v.Name)
		}
		if prev, ok := seen[id]; ok {
			t.Errorf("%q and %q share ID %s", v.Name, prev, id)
		}
		seen[id] = v.Name
	}
}

// The names pmpsim -pf accepts are ExperimentVariants' wire names. They
// derive from the grid tables' rows, so an edited row would silently
// change them: this pins the sorted names and a digest of the sorted
// JSON specs behind them.
func TestExperimentVariantsNamespace(t *testing.T) {
	var names, specs []string
	for _, v := range ExperimentVariants() {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, v.Name)
		specs = append(specs, string(b))
	}
	slices.Sort(names)
	slices.Sort(specs)
	want := []string{
		"bingo", "bingo@llc", "bop", "cross-region projection",
		"designb-128w", "designb-32w", "designb-512w", "designb-8w",
		"dspatch", "nextline", "no PB resume", "no halving (frozen counters)",
		"no halving + no resume", "none", "pmp", "pmp (default)",
		"pmp-0.25-0.15", "pmp-0.5-0.05", "pmp-0.5-0.15", "pmp-0.5-0.3",
		"pmp-0.75-0.15", "pmp-0.75-0.5", "pmp-16", "pmp-32", "pmp-64",
		"pmp-AFE", "pmp-ANE", "pmp-ARE", "pmp-combined",
		"pmp-cs2", "pmp-cs3", "pmp-cs4", "pmp-cs5", "pmp-cs6", "pmp-cs7", "pmp-cs8",
		"pmp-dual", "pmp-limit", "pmp-mr1", "pmp-mr2", "pmp-mr4", "pmp-mr8",
		"pmp-opt-only", "pmp-ppt-only",
		"pmp-tw10", "pmp-tw11", "pmp-tw12", "pmp-tw6", "pmp-tw7", "pmp-tw8", "pmp-tw9",
		"pythia", "sandbox", "sms", "spp-ppf", "stride", "vldp",
	}
	if !slices.Equal(names, want) {
		t.Errorf("variant names (%d):\n%q\nwant (%d):\n%q", len(names), names, len(want), want)
	}
	sum := sha256.Sum256([]byte(strings.Join(specs, "\n")))
	if got, want := hex.EncodeToString(sum[:]), "dc12d79e3910b661fa934a8d71404b1a213ee076b3054b0f06ab27cd05aade5d"; got != want {
		t.Errorf("sorted JSON specs hash to %s, want %s", got, want)
	}
}

// A grid row's variant is the spec its name looks up: a row that
// reused another spec's name would run a design pmpsim -pf cannot
// build.
func TestGridRowsParseBack(t *testing.T) {
	for _, e := range Experiments(nil) {
		if e.grid == nil {
			continue
		}
		for _, row := range e.grid.rows {
			v, err := ParseVariant(row.core.Name)
			if err != nil || !reflect.DeepEqual(v, row.core) {
				t.Errorf("%s row %q: ParseVariant = %+v, %v; want %+v", e.ID, row.lead, v, err, row.core)
			}
		}
	}
}
