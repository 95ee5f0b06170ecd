package bench

import (
	"maps"
	"strings"
	"testing"

	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// tinyScale keeps unit tests fast.
func tinyScale() Scale {
	return Scale{Traces: 4, Records: 20_000, Warmup: 10_000, Measure: 50_000}
}

// runSingle simulates one (trace, prefetcher) pair on a one-core machine.
func runSingle(spec trace.Spec, pf prefetch.Prefetcher, scale Scale, cfg sim.Config) sim.Result {
	src := []trace.Source{spec.New(scale.Records)}
	return sim.NewMachineAt(cfg, []prefetch.Prefetcher{pf}, nil, false).Run(src)[0]
}

func TestScalesAreOrdered(t *testing.T) {
	q, d, f := QuickScale(), DefaultScale(), FullScale()
	if !(q.Records < d.Records && d.Records < f.Records) {
		t.Error("record counts should grow quick < default < full")
	}
	if f.Traces != 125 {
		t.Errorf("full scale should use the whole suite, got %d", f.Traces)
	}
	if err := q.Config().Validate(); err != nil {
		t.Errorf("quick config invalid: %v", err)
	}
}

// TestScaleSubsetSizes pins how many traces each scale runs:
// trace.Representative floors every family's quota, so a scale runs
// fewer traces than its Traces field asks for.
func TestScaleSubsetSizes(t *testing.T) {
	fams := map[trace.Family]int{}
	for _, sp := range DefaultScale().Specs() {
		fams[sp.Family]++
	}
	want := map[trace.Family]int{trace.SPEC06: 4, trace.SPEC17: 4, trace.Ligra: 5, trace.PARSEC: 1}
	if !maps.Equal(fams, want) {
		t.Errorf("DefaultScale families = %v, want %v (14 traces)", fams, want)
	}
	if n := len(QuickScale().Specs()); n != 5 {
		t.Errorf("QuickScale runs %d traces, want 5", n)
	}
	sub := (&Runner{Scale: DefaultScale()}).subRunner()
	if n := len(sub.Specs()); n != 7 {
		t.Errorf("DefaultScale sweep subset runs %d traces, want 7", n)
	}
}

func TestNewPrefetcherKnowsAllNames(t *testing.T) {
	names := append([]string{NameNone, NameNextline, NameStride, NamePMPLimit}, EvalNames()...)
	for _, n := range names {
		pf := NewPrefetcher(n)
		if pf == nil {
			t.Fatalf("nil prefetcher for %q", n)
		}
		if n != NamePMPLimit && pf.Name() != n {
			t.Errorf("NewPrefetcher(%q).Name() = %q", n, pf.Name())
		}
	}
}

func TestNewPrefetcherUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown name accepted")
		}
	}()
	NewPrefetcher("bogus")
}

func TestSuiteResultMetrics(t *testing.T) {
	r := NewRunner(tinyScale())
	cfg := r.Scale.Config()
	res := r.Run(NamePMP, cfg)
	if len(res.Results) != len(r.Specs()) {
		t.Fatalf("%d results for %d specs", len(res.Results), len(r.Specs()))
	}
	nipc := res.NIPC()
	if nipc <= 0.3 || nipc > 5 {
		t.Errorf("NIPC = %v, implausible", nipc)
	}
	if res.NMT() <= 0 {
		t.Error("NMT should be positive")
	}
	fams := res.NIPCByFamily()
	if len(fams) == 0 {
		t.Error("family breakdown empty")
	}
	for fam, v := range fams {
		if v <= 0 {
			t.Errorf("family %s NIPC = %v", fam, v)
		}
	}
}

func TestNopSuiteIsUnity(t *testing.T) {
	r := NewRunner(tinyScale())
	cfg := r.Scale.Config()
	res := r.Run(NameNone, cfg)
	if nipc := res.NIPC(); nipc < 0.999 || nipc > 1.001 {
		t.Errorf("baseline vs itself NIPC = %v, want 1", nipc)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestStorageExperiment(t *testing.T) {
	tb := Storage()
	s := tb.String()
	for _, want := range []string{"PMP total", "bingo", "pythia", "dspatch", "spp-ppf"} {
		if !strings.Contains(s, want) {
			t.Errorf("storage table missing %q", want)
		}
	}
	// The headline claims: Bingo ~30x PMP, Pythia ~6x PMP.
	pmp := float64(NewPrefetcher(NamePMP).StorageBits())
	bingo := float64(NewPrefetcher(NameBingo).StorageBits())
	pythia := float64(NewPrefetcher(NamePythia).StorageBits())
	if r := bingo / pmp; r < 20 || r > 40 {
		t.Errorf("Bingo/PMP storage ratio = %.1f, want ~30", r)
	}
	if r := pythia / pmp; r < 4 || r > 9 {
		t.Errorf("Pythia/PMP storage ratio = %.1f, want ~6", r)
	}
}

// TestRegistryStorageBits pins every registered design's storage
// model. StorageBits enters no simulated result, so the golden digests
// cannot see a mistyped table size; only T3's and REL's storage columns
// would move.
func TestRegistryStorageBits(t *testing.T) {
	want := map[string]int{
		NameNone:     0,
		NameNextline: 256,
		NameStride:   3_968,
		NameBOP:      3_324,
		NameSandbox:  2_212,
		NameVLDP:     9_216,
		NameSMS:      140_800,
		NameDSPatch:  15_360,
		NameBingo:    1_086_976,
		NameSPPPPF:   303_616,
		NamePythia:   189_696,
		NamePMP:      34_912,
		NamePMPLimit: 34_912,
	}
	for _, name := range Names() {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned storage", name)
			continue
		}
		if got := NewPrefetcher(name).StorageBits(); got != w {
			t.Errorf("%s: StorageBits = %d, want %d", name, got, w)
		}
	}
	if len(want) != len(Names()) {
		t.Errorf("pinned %d names, registry has %d", len(want), len(Names()))
	}
}

func TestTableIExperiment(t *testing.T) {
	tb := TableI(tinyScale())
	if len(tb.Rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5 features", len(tb.Rows))
	}
}

func TestFig2Experiment(t *testing.T) {
	tb := Fig2(tinyScale())
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig 2 has %d rows", len(tb.Rows))
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	scale := QuickScale()
	r := NewRunner(scale)
	cfg := scale.Config()
	nipc := map[string]float64{}
	for _, name := range EvalNames() {
		nipc[name] = r.Run(name, cfg).NIPC()
	}
	// The reproduced headline shape: every prefetcher helps on average,
	// DSPatch is clearly last among the five, and PMP lands in the top
	// group (within a few percent of the best).
	best := 0.0
	for _, v := range nipc {
		if v > best {
			best = v
		}
	}
	for name, v := range nipc {
		if v < 0.9 {
			t.Errorf("%s NIPC = %.3f, should not lose 10%% on the suite", name, v)
		}
	}
	// The 5-trace quick subset is noisy; PMP must stay within ~10% of
	// the best (the default-scale gap is ~1.5%, see EXPERIMENTS.md).
	if nipc[NamePMP] < best*0.90 {
		t.Errorf("PMP NIPC %.3f too far from best %.3f", nipc[NamePMP], best)
	}
	if nipc[NameDSPatch] >= nipc[NamePMP] {
		t.Errorf("DSPatch (%.3f) should trail PMP (%.3f)", nipc[NameDSPatch], nipc[NamePMP])
	}
	if nipc[NamePMP] < 1.1 {
		t.Errorf("PMP NIPC = %.3f, want a solid gain over no prefetching", nipc[NamePMP])
	}
}

func TestFig13Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore experiment")
	}
	scale := Scale{Traces: 4, Records: 30_000, Warmup: 10_000, Measure: 40_000}
	tb := Fig13(NewRunner(scale))
	if len(tb.Rows) != len(EvalNames())+1 { // + PMP-Limit
		t.Fatalf("Fig 13 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 4 {
			t.Fatalf("row %v malformed", row)
		}
	}
}

func TestLevelStatsComputesCoverage(t *testing.T) {
	r := NewRunner(tinyScale())
	cfg := r.Scale.Config()
	res := r.Run(NamePMP, cfg)
	cov, acc := levelStats(res)
	// PMP must reduce misses somewhere and have sane accuracies.
	if cov[1] <= 0 && cov[2] <= 0 && cov[3] <= 0 {
		t.Errorf("no positive coverage at any level: %v", cov)
	}
	for l := 1; l <= 3; l++ {
		if acc[l] < 0 || acc[l] > 1 {
			t.Errorf("accuracy[%d] = %v out of range", l, acc[l])
		}
	}
}

func TestRepresentativeSubsetUsed(t *testing.T) {
	r := NewRunner(tinyScale())
	if len(r.Specs()) == 0 || len(r.Specs()) > 125 {
		t.Fatalf("specs = %d", len(r.Specs()))
	}
	fams := map[trace.Family]bool{}
	for _, sp := range r.Specs() {
		fams[sp.Family] = true
	}
	if len(fams) < 3 {
		t.Errorf("subset covers only %d families", len(fams))
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tb := Ablations(NewRunner(tinyScale()))
	if len(tb.Rows) != 5 {
		t.Fatalf("ablations rows = %d", len(tb.Rows))
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "va,l")
	tb.Notes = append(tb.Notes, "note")
	got := tb.CSV()
	want := "a,b\n1,\"va,l\"\n# note\n"
	if got != want {
		t.Errorf("CSV() = %q, want %q", got, want)
	}
}

// TestSuiteMPKIClasses sanity-checks the Table VII classification: the
// High class must actually miss more than the Low class on average.
func TestSuiteMPKIClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple simulations")
	}
	scale := tinyScale()
	cfg := scale.Config()
	byClass := trace.ByClass(trace.Suite())
	mean := func(specs []trace.Spec) float64 {
		var sum float64
		n := min(3, len(specs))
		for _, sp := range specs[:n] {
			sum += runSingle(sp, NewPrefetcher(NameNone), scale, cfg).MPKI()
		}
		return sum / float64(n)
	}
	low, high := mean(byClass[trace.LowMPKI]), mean(byClass[trace.HighMPKI])
	if high <= low {
		t.Errorf("High class MPKI (%.1f) should exceed Low class (%.1f)", high, low)
	}
}

// The sweep runners must produce complete tables at tiny scale; one
// compact test covers their row shape.
func TestSweepRunnersProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple simulations")
	}
	r := NewRunner(tinyScale())
	cases := []struct {
		name string
		tb   *Table
		rows int
	}{
		{"TableVIII", TableVIII(r), 5},
		{"Extraction", Extraction(r), 3},
		{"MultiFeature", MultiFeature(r), 4},
		{"TableIX", TableIX(r), 3},
		{"TableXI", TableXI(r), 4},
		{"Thresholds", Thresholds(r), 6},
		{"Related", Related(r), 7},
		{"Placement", Placement(r), 2},
	}
	for _, c := range cases {
		if len(c.tb.Rows) != c.rows {
			t.Errorf("%s rows = %d, want %d", c.name, len(c.tb.Rows), c.rows)
		}
		for _, row := range c.tb.Rows {
			if len(row) != len(c.tb.Header) {
				t.Errorf("%s row %v does not match header %v", c.name, row, c.tb.Header)
			}
		}
	}
}

// TestBandwidthMonotonicity guards the Fig 12a shape at a coarse
// level: PMP's NIPC at high bandwidth must exceed its NIPC at 800
// MT/s, where its aggressive traffic is penalized.
func TestBandwidthMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple simulations")
	}
	r := NewRunner(tinyScale())
	low := r.Run(NamePMP, r.Scale.Config().WithBandwidth(800)).NIPC()
	high := r.Run(NamePMP, r.Scale.Config().WithBandwidth(6400)).NIPC()
	if high <= low {
		t.Errorf("PMP NIPC at 6400 MT/s (%.3f) should exceed 800 MT/s (%.3f)", high, low)
	}
}
