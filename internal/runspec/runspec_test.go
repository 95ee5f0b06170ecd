package runspec

import (
	"encoding/json"
	"reflect"
	"testing"

	"pmp/internal/core"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/sim"
)

func pmpVariant(name string) VariantSpec {
	c := core.DefaultConfig()
	return VariantSpec{Name: name, PMP: &c}
}

func validSpec() RunSpec {
	cfg := sim.DefaultConfig()
	return RunSpec{
		Cores:   []CoreSpec{{Trace: TraceRef{Name: "t0"}, Variant: pmpVariant("pmp")}},
		Records: 10_000,
		Config:  cfg,
	}
}

func TestVariantValidate(t *testing.T) {
	c := core.DefaultConfig()
	cases := []struct {
		label string
		v     VariantSpec
		ok    bool
	}{
		{"registry", VariantSpec{Name: "pmp", Registry: "pmp"}, true},
		{"typed", pmpVariant("pmp-tw8"), true},
		{"no name", VariantSpec{Registry: "pmp"}, false},
		{"no construction", VariantSpec{Name: "x"}, false},
		{"two constructions", VariantSpec{Name: "x", Registry: "pmp", PMP: &c}, false},
	}
	for _, tc := range cases {
		if err := tc.v.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.label, err, tc.ok)
		}
	}
}

func TestRunSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		label string
		mut   func(*RunSpec)
	}{
		{"no cores", func(rs *RunSpec) { rs.Cores = nil }},
		{"unnamed trace", func(rs *RunSpec) { rs.Cores[0].Trace.Name = "" }},
		{"bad core variant", func(rs *RunSpec) { rs.Cores[0].Variant = VariantSpec{Name: "x"} }},
		{"placement level 0", func(rs *RunSpec) {
			rs.Placements = []Placement{{Level: 0, Variant: pmpVariant("p")}}
		}},
		{"placement past depth", func(rs *RunSpec) {
			rs.Placements = []Placement{{Level: rs.Config.HierarchyDepth(), Variant: pmpVariant("p")}}
		}},
		{"bad placement variant", func(rs *RunSpec) {
			rs.Placements = []Placement{{Level: 1, Variant: VariantSpec{Name: "x"}}}
		}},
		{"zero records", func(rs *RunSpec) { rs.Records = 0 }},
		{"replay unbounded", func(rs *RunSpec) { rs.Replay = true; rs.Config.Measure = 0 }},
		// Each of these would panic inside the job if it got that far.
		{"negative L1D PQ size", func(rs *RunSpec) { rs.Config.L1D.PQSize = -1 }},
		{"128-way level", func(rs *RunSpec) {
			rs.Config = rs.Config.Resolved()
			rs.Config.Levels[2].Cache.Sets, rs.Config.Levels[2].Cache.Ways = 256, 128
		}},
		{"PMP trigger bits 0", func(rs *RunSpec) { rs.Cores[0].Variant.PMP.TriggerBits = 0 }},
		{"PMP FT sets 3", func(rs *RunSpec) { rs.Cores[0].Variant.PMP.FTSets = 3 }},
		{"Design B FT sets 3", func(rs *RunSpec) {
			c := core.DefaultDesignBConfig()
			c.FTSets = 3
			rs.Cores[0].Variant = VariantSpec{Name: "designb-8w", DesignB: &c}
		}},
		{"Design B PB entries 0", func(rs *RunSpec) {
			c := core.DefaultDesignBConfig()
			c.PBEntries = 0
			rs.Cores[0].Variant = VariantSpec{Name: "designb-8w", DesignB: &c}
		}},
		{"PMP ANE thresholds 5/16", func(rs *RunSpec) {
			rs.Cores[0].Variant.PMP.Scheme = core.ANE
			rs.Cores[0].Variant.PMP.ANEL1, rs.Cores[0].Variant.PMP.ANEL2 = 5, 16
		}},
		{"Bingo vote fraction 2", func(rs *RunSpec) {
			c := bingo.DefaultConfig()
			c.L1DVoteFrac = 2
			rs.Placements = []Placement{{Level: 2, Variant: VariantSpec{Name: "bingo@llc", Bingo: &c}}}
		}},
		{"Bingo FT sets 3", func(rs *RunSpec) {
			c := bingo.DefaultConfig()
			c.FTSets = 3
			rs.Placements = []Placement{{Level: 2, Variant: VariantSpec{Name: "bingo@llc", Bingo: &c}}}
		}},
	}
	for _, tc := range cases {
		rs := validSpec()
		tc.mut(&rs)
		if err := rs.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted %+v", tc.label, rs)
		}
	}
}

func TestTraceKey(t *testing.T) {
	rs := validSpec()
	if got := rs.TraceKey(); got != "t0" {
		t.Errorf("single-core TraceKey = %q, want the bare trace name", got)
	}
	rs.Cores = append(rs.Cores, CoreSpec{Trace: TraceRef{Name: "t1"}, Variant: pmpVariant("pmp")})
	if got := rs.TraceKey(); got != "mix(t0,t1)" {
		t.Errorf("multicore TraceKey = %q, want mix(t0,t1)", got)
	}
}

func TestNameAndLabel(t *testing.T) {
	rs := validSpec()
	if got := rs.Label(); got != "pmp/t0" {
		t.Errorf("unplaced single-core Label = %q, want the variant and trace names", got)
	}
	rs.Placements = []Placement{{Level: 2, Variant: pmpVariant("bingo@llc")}}
	if got := rs.Name(); got != "pmp+bingo@llc@L2" {
		t.Errorf("placed Name = %q, want pmp+bingo@llc@L2", got)
	}
	rs.Placements = nil
	rs.Cores = append(rs.Cores, rs.Cores[0])
	if got := rs.Name(); got != "pmp" {
		t.Errorf("homogeneous mix Name = %q, want one name", got)
	}
	rs.Cores = append(rs.Cores, CoreSpec{Trace: TraceRef{Name: "t1"}, Variant: pmpVariant("pmp-tw8")})
	if got := rs.Name(); got != "pmp,pmp-tw8" {
		t.Errorf("heterogeneous mix Name = %q, want pmp,pmp-tw8", got)
	}
}

// The whole run spec must survive the wire with its identity intact:
// deep-equal after a JSON round-trip, with the same ID, so a worker and
// the coordinator key a job exactly as its submitter did.
func TestRunSpecSurvivesJSON(t *testing.T) {
	rs := validSpec()
	rs.Placements = []Placement{{Level: 2, Variant: pmpVariant("bingo@llc")}}
	rs.Replay = true
	rs.Config.Measure = 10_000

	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Errorf("run spec changed across JSON round-trip:\nbefore %+v\nafter  %+v", rs, back)
	}
	if back.ID() != rs.ID() {
		t.Error("ID changed across JSON round-trip")
	}
}
