package bench

import (
	"fmt"
	"math"

	"pmp/internal/cache"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// The HET experiment family exercises the heterogeneous-hierarchy
// surface the declarative run-spec layer opens up: prefetcher variants
// stacked at different cache levels (HETS), many-core heterogeneous
// trace mixes (HETM), non-standard hierarchy depths (HETH), and the
// DRAM-bandwidth crossover of stacked designs (HETB). None is a paper
// artifact; all four run through the same runner — and therefore
// locally, store-backed, or distributed — like every other experiment.

// hetStacks is the stacked-configuration lineup shared by HETS and
// HETB: PMP and Bingo alone, then PMP at L1D with the original
// (non-doubled) Bingo placed deeper. The combined names are job
// identities; the placements travel in the run spec.
var hetStacks = []struct {
	label string
	name  string
	core  VariantSpec
	place []runspec.Placement
}{
	{"pmp @ L1D", NamePMP, RegistryVariant(NamePMP), nil},
	{"bingo @ L1D", NameBingo, RegistryVariant(NameBingo), nil},
	{"pmp @ L1D + bingo @ L2C", "pmp+bingo@l2",
		RegistryVariant(NamePMP), []runspec.Placement{{Level: 1, Variant: BingoLLCVariant()}}},
	{"pmp @ L1D + bingo @ LLC", "pmp+bingo@llc",
		RegistryVariant(NamePMP), []runspec.Placement{{Level: 2, Variant: BingoLLCVariant()}}},
}

// HETS evaluates prefetcher stacking: PMP trained at the L1D with the
// original Bingo simultaneously placed at the L2C or the LLC, against
// each design alone. It probes whether a second, coarser-grained
// prefetcher below PMP recovers any of the coverage the §V-B placement
// experiment attributes to the LLC vantage point.
func HETS(r *Runner) *Table {
	sw := r.subRunner()
	cfg := sw.Scale.Config()
	t := &Table{
		ID:     "HETS",
		Title:  "Heterogeneous stacking: PMP@L1D with Bingo placed deeper (extension)",
		Header: []string{"Configuration", "NIPC", "NMT"},
	}
	for _, s := range hetStacks {
		res := sw.RunPlaced(s.name, s.core, s.place, cfg)
		t.AddRow(s.label, f3(res.NIPC()), pct(res.NMT()))
	}
	t.Notes = append(t.Notes,
		"stacked rows place the original (non-doubled) Bingo at the deeper level of every core;",
		"both prefetchers issue into the same hierarchy, so wins must outweigh the added traffic")
	return t
}

// HETM evaluates 8-core heterogeneous trace mixes: per-MPKI-class
// mixes twice as wide as Fig 13's, on a 4-channel memory system. Each
// mix is one multicore run spec through the sweep.
func HETM(r *Runner) *Table {
	cfg := r.Scale.Config()
	cfg.DRAM.Channels = 4
	if cfg.Measure == 0 {
		cfg.Measure = 400_000
	}
	t := &Table{
		ID:     "HETM",
		Title:  "8-core heterogeneous mixes, geomean per-core NIPC (extension)",
		Header: []string{"Prefetcher", "low", "medium", "high", "mixed", "ALL"},
	}

	byClass := trace.ByClass(trace.Suite())
	pick := func(class trace.MPKIClass, i int) trace.Spec {
		specs := byClass[class]
		return specs[i%len(specs)]
	}
	L, M, H := trace.LowMPKI, trace.MediumMPKI, trace.HighMPKI
	mixTypes := []struct {
		label string
		cls   [8]trace.MPKIClass
	}{
		{"low", [8]trace.MPKIClass{L, L, L, L, L, L, L, L}},
		{"medium", [8]trace.MPKIClass{M, M, M, M, M, M, M, M}},
		{"high", [8]trace.MPKIClass{H, H, H, H, H, H, H, H}},
		{"mixed", [8]trace.MPKIClass{L, L, M, M, H, H, M, L}},
	}
	mixes := make([][]trace.Spec, len(mixTypes))
	for i, ty := range mixTypes {
		specs := make([]trace.Spec, 8)
		for j, cl := range ty.cls {
			specs[j] = pick(cl, j)
		}
		mixes[i] = specs
	}

	jobsFor := func(name string) []remote.JobSpec {
		v := RegistryVariant(name)
		jobs := make([]remote.JobSpec, len(mixes))
		for i, mix := range mixes {
			jobs[i] = mixJob(name, v, mix, 8, r.Scale.Records, cfg)
		}
		return jobs
	}
	base := r.runJobs(jobsFor(NameNone))

	for _, name := range EvalNames() {
		res := r.runJobs(jobsFor(name))
		row := []string{name}
		var sum float64
		for i := range mixes {
			v := coreNIPC(res[i], base[i])
			row = append(row, f3(v))
			sum += math.Log(v)
		}
		row = append(row, f3(math.Exp(sum/float64(len(mixes)))))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"8 cores on 4 DRAM channels; each column is one mix of the named MPKI class(es)",
		"bandwidth-hungry designs lose more of their single-core edge as the high-MPKI share grows")
	return t
}

// hetHierarchies is the hierarchy lineup HETH sweeps: the classic
// 3-level machine, a flat 2-level one, and a 4-level one with a
// private 1MB L3 between the L2C and the shared LLC.
func hetHierarchies() []struct {
	name string
	mut  func(*sim.Config)
} {
	return []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"2-level (L1D+LLC)", func(c *sim.Config) {
			c.Levels = []sim.LevelSpec{
				{Cache: c.L1D},
				{Cache: c.LLC, Shared: true, Inclusive: true},
			}
		}},
		{"3-level (default)", func(*sim.Config) {}},
		{"4-level (L1D+L2C+L3+LLC)", func(c *sim.Config) {
			l3 := cache.Config{Name: "L3", Sets: 1024, Ways: 16, Latency: 15, MSHRs: 48, PQSize: 24}
			c.Levels = []sim.LevelSpec{
				{Cache: c.L1D},
				{Cache: c.L2C},
				{Cache: l3},
				{Cache: c.LLC, Shared: true, Inclusive: true},
			}
		}},
	}
}

// HETH evaluates hierarchy depth: PMP alone and PMP stacked with Bingo
// at the outermost level, on 2-, 3- and 4-level machines. Each row is
// normalized against the non-prefetching baseline of the same
// hierarchy, so the columns compare prefetcher effectiveness, not raw
// hierarchy quality.
func HETH(r *Runner) *Table {
	sw := r.subRunner()
	t := &Table{
		ID:     "HETH",
		Title:  "Hierarchy depth: 2- vs 3- vs 4-level machines (extension)",
		Header: []string{"Hierarchy", "pmp NIPC", "pmp+bingo@outer NIPC"},
	}
	for _, h := range hetHierarchies() {
		cfg := sw.Scale.Config()
		h.mut(&cfg)
		outer := cfg.HierarchyDepth() - 1
		pmp := sw.Run(NamePMP, cfg)
		stacked := sw.RunPlaced("pmp+bingo@outer", RegistryVariant(NamePMP),
			[]runspec.Placement{{Level: outer, Variant: BingoLLCVariant()}}, cfg)
		t.AddRow(h.name, f3(pmp.NIPC()), f3(stacked.NIPC()))
	}
	t.Notes = append(t.Notes,
		"the 4-level machine inserts a private 1MB L3 (15 cyc) between the L2C and the shared LLC;",
		"placements validate against each hierarchy's depth — the outer level is 1, 2 and 3 here")
	return t
}

// HETB sweeps the stacked configurations across DRAM transfer rates,
// looking for the crossover where stacking's extra traffic stops
// paying: Fig 12a's bandwidth axis applied to the HETS lineup.
func HETB(r *Runner) *Table {
	sw := r.subRunner()
	rates := []int{800, 1600, 3200, 6400}
	t := &Table{
		ID:     "HETB",
		Title:  "Stacked prefetchers vs memory bandwidth (extension; cf. paper Fig 12a)",
		Header: []string{"Configuration", "800", "1600", "3200", "6400"},
	}
	for _, s := range hetStacks {
		row := []string{s.label}
		for _, mtps := range rates {
			cfg := sw.Scale.Config().WithBandwidth(mtps)
			res := sw.RunPlaced(s.name, s.core, s.place, cfg)
			row = append(row, f3(res.NIPC()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d configurations x %d rates; stacking helps most where bandwidth is plentiful", len(hetStacks), len(rates)))
	return t
}
