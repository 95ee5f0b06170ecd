package bench

import (
	"fmt"
	"math"

	"pmp/internal/analysis"
	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// subRunner returns a runner over the sweep subset, the traces the
// parameter sweeps run (the paper also evaluates ablations on the same
// suite; we trim for wall-clock). It submits to the parent's scheduler,
// so sweep-subset jobs interleave with — and deduplicate against —
// every other experiment's jobs.
func (r *Runner) subRunner() *Runner {
	sub := *r
	sub.specs = r.sweep()
	return &sub
}

// corpus captures the Section III pattern corpus pooled over the
// runner's traces.
func (r *Runner) corpus() *analysis.Corpus {
	srcs := make([]trace.Source, len(r.specs))
	for i, sp := range r.specs {
		srcs[i] = sp.New(r.Scale.Records)
	}
	return analysis.CaptureAll(srcs, 0)
}

// TableI reproduces Table I: PCR and PDR per indexing feature, each
// the mean over the runner's traces of that trace's own rate (as Fig 4
// averages ICDD per trace).
func TableI(r *Runner) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "Average Pattern Collision/Duplicate Rates (paper Table I)",
		Header: []string{"Feature", "PCR", "PDR"},
	}
	feats := analysis.Features()
	pcr, pdr := make([]float64, len(feats)), make([]float64, len(feats))
	for _, sp := range r.specs {
		c := analysis.Capture(sp.New(r.Scale.Records), 0)
		for i, f := range feats {
			a, b := analysis.PCRPDR(c, f)
			pcr[i] += a
			pdr[i] += b
		}
	}
	n := float64(len(r.specs))
	for i, f := range feats {
		t.AddRow(f.String(), f1(pcr[i]/n), f1(pdr[i]/n))
	}
	t.Notes = append(t.Notes,
		"paper: PC 3823.6/2.2, TriggerOffset 2094.2/2.6, PC+TO 269.0/6.3, Address 1.8/556.3, PC+Address 1.7/608.7",
		"ordering (coarse features: high PCR low PDR; fine features: low PCR high PDR) is the reproduced claim")
	return t
}

// Fig2 reproduces Fig 2 / Observation 1: pattern frequency concentration.
func Fig2(r *Runner) *Table {
	c := r.corpus()
	st := analysis.Frequencies(c, []int{10, 100, 1000})
	t := &Table{
		ID:     "F2",
		Title:  "Pattern frequency concentration (paper Fig 2 / Observation 1)",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow("total occurrences", fmt.Sprint(st.Occurrences))
	t.AddRow("distinct patterns", fmt.Sprint(st.Distinct))
	t.AddRow("distinct seen once", pct(st.OnceFrac))
	t.AddRow("top-10 share", pct(st.TopShare[0]))
	t.AddRow("top-100 share", pct(st.TopShare[1]))
	t.AddRow("top-1000 share", pct(st.TopShare[2]))
	t.Notes = append(t.Notes,
		"paper: 75.6% seen once; top-10 33.1%, top-100 57.4%, top-1000 73.8% of occurrences")
	return t
}

// Fig4 reproduces Fig 4 / Observation 3: average ICDD per 6-bit
// clustering feature (lower = more similar patterns per cluster).
func Fig4(r *Runner) *Table {
	t := &Table{
		ID:     "F4",
		Title:  "Average ICDD by clustering feature (paper Fig 4)",
		Header: []string{"Feature", "mean ICDD", "min", "max"},
	}
	type acc struct {
		sum, minV, maxV float64
		n               int
	}
	accs := map[analysis.Feature]*acc{}
	for _, f := range analysis.Features() {
		accs[f] = &acc{minV: math.Inf(1), maxV: math.Inf(-1)}
	}
	for _, sp := range r.specs {
		c := analysis.Capture(sp.New(r.Scale.Records), 0)
		for _, f := range analysis.Features() {
			v := analysis.ICDD(c, f)
			a := accs[f]
			a.sum += v
			a.n++
			a.minV = math.Min(a.minV, v)
			a.maxV = math.Max(a.maxV, v)
		}
	}
	for _, f := range analysis.Features() {
		a := accs[f]
		if a.n == 0 {
			continue
		}
		t.AddRow(f.String(), f3(a.sum/float64(a.n)), f3(a.minV), f3(a.maxV))
	}
	t.Notes = append(t.Notes,
		"paper's claim: Trigger Offset clusters have the lowest ICDD (highest similarity)")
	return t
}

// Fig5 reproduces Fig 5: offset heat maps for an MCF-like and a
// stride (Astar-like) trace under different features.
func Fig5(r *Runner) *Table {
	mcf := trace.NewBackward("mcf-like", 11, r.Scale.Records, trace.DefaultBackwardParams())
	astar := trace.NewStride("astar-like", 12, r.Scale.Records, trace.DefaultStrideParams())
	cm := analysis.Capture(mcf, 0)
	ca := analysis.Capture(astar, 0)

	t := &Table{
		ID:     "F5",
		Title:  "Pattern heat maps (paper Fig 5); rendered 64x64, rows = feature index, cols = offset",
		Header: []string{"Panel"},
	}
	panels := []struct {
		label string
		c     *analysis.Corpus
		f     analysis.Feature
	}{
		{"(a) TriggerOffset-indexed, MCF-like", cm, analysis.FeatTriggerOffset},
		{"(b) TriggerOffset-indexed, Astar-like", ca, analysis.FeatTriggerOffset},
		{"(c) PC+Address-indexed, MCF-like", cm, analysis.FeatPCAddress},
		{"(d) PC-indexed, MCF-like", cm, analysis.FeatPC},
	}
	for _, p := range panels {
		m := analysis.HeatMap(p.c, p.f)
		t.AddRow(p.label)
		t.AddRow(analysis.RenderHeatMap(m))
	}
	t.Notes = append(t.Notes,
		"(a) shows a diagonal slash plus bottom rows of backward accesses; (b) strided slashes;",
		"(c) scatters mass across all rows; (d) concentrates into a few PC rows")
	return t
}

// Storage reproduces Tables II, III and V: PMP's parameter/overhead
// breakdown and the per-prefetcher storage comparison.
func Storage() *Table {
	t := &Table{
		ID:     "T3",
		Title:  "Storage overhead (paper Tables II/III/V)",
		Header: []string{"Structure/Prefetcher", "Storage"},
	}
	s := core.DefaultConfig().Storage()
	t.AddRow("PMP filter table", fmt.Sprintf("%d B", s.FilterTableBits/8))
	t.AddRow("PMP accumulation table", fmt.Sprintf("%d B", s.AccumTableBits/8))
	t.AddRow("PMP offset pattern table", fmt.Sprintf("%d B", s.OPTBits/8))
	t.AddRow("PMP PC pattern table", fmt.Sprintf("%d B", s.PPTBits/8))
	t.AddRow("PMP prefetch buffer", fmt.Sprintf("%d B", s.PrefetchBufBits/8))
	t.AddRow("PMP total", fmt.Sprintf("%.1f KB", s.TotalBytes()/1024))
	var pmpKB float64
	for _, name := range EvalNames() {
		pf := NewPrefetcher(name)
		kb := float64(pf.StorageBits()) / 8 / 1024
		if name == NamePMP {
			pmpKB = kb
		}
		t.AddRow(name, fmt.Sprintf("%.1f KB", kb))
	}
	if pmpKB > 0 {
		bingoKB := float64(NewPrefetcher(NameBingo).StorageBits()) / 8 / 1024
		pythiaKB := float64(NewPrefetcher(NamePythia).StorageBits()) / 8 / 1024
		t.Notes = append(t.Notes,
			fmt.Sprintf("Bingo/PMP = %.1fx (paper ~30x), Pythia/PMP = %.1fx (paper ~6x)",
				bingoKB/pmpKB, pythiaKB/pmpKB))
	}
	t.Notes = append(t.Notes, "paper Table V: DSPatch 3.6KB, Bingo 127.8KB, SPP+PPF 48.4KB, Pythia 25.5KB, PMP 4.3KB")
	return t
}

// Fig8 reproduces Fig 8: single-core NIPC of the five prefetchers, per
// family and overall.
func Fig8(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:     "F8",
		Title:  "Single-core performance, geomean NIPC vs no prefetching (paper Fig 8)",
		Header: []string{"Prefetcher", "spec06", "spec17", "ligra", "parsec", "ALL"},
	}
	for _, name := range EvalNames() {
		res := r.Run(name, cfg)
		fams := res.NIPCByFamily()
		row := []string{name}
		for _, fam := range []trace.Family{trace.SPEC06, trace.SPEC17, trace.Ligra, trace.PARSEC} {
			if v, ok := fams[fam]; ok {
				row = append(row, f3(v))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, f3(res.NIPC()))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: PMP 1.652 overall; beats DSPatch +41.3%, Bingo +2.6%, SPP+PPF +6.5%, Pythia +8.2%")
	return t
}

// levelStats aggregates per-level coverage and accuracy across traces.
func levelStats(res SuiteResult) (cov, acc [4]float64) {
	var baseMiss, miss, useful, useless [4]uint64
	for i := range res.Results {
		b, p := res.Baseline[i], res.Results[i]
		baseMiss[1] += b.L1D.DemandMisses
		baseMiss[2] += b.L2C.DemandMisses
		baseMiss[3] += b.LLC.DemandMisses
		miss[1] += p.L1D.DemandMisses
		miss[2] += p.L2C.DemandMisses
		miss[3] += p.LLC.DemandMisses
		useful[1] += p.L1D.UsefulPrefetch
		useful[2] += p.L2C.UsefulPrefetch
		useful[3] += p.LLC.UsefulPrefetch
		useless[1] += p.L1D.UselessPrefetx
		useless[2] += p.L2C.UselessPrefetx
		useless[3] += p.LLC.UselessPrefetx
	}
	for l := 1; l <= 3; l++ {
		if baseMiss[l] > 0 {
			cov[l] = float64(int64(baseMiss[l])-int64(miss[l])) / float64(baseMiss[l])
		}
		if tot := useful[l] + useless[l]; tot > 0 {
			acc[l] = float64(useful[l]) / float64(tot)
		}
	}
	return cov, acc
}

// Fig9 reproduces Fig 9: prefetch coverage and accuracy per cache level.
func Fig9(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:    "F9",
		Title: "Coverage and accuracy per cache level (paper Fig 9)",
		Header: []string{"Prefetcher",
			"L1D cov", "L2C cov", "LLC cov",
			"L1D acc", "L2C acc", "LLC acc"},
	}
	for _, name := range EvalNames() {
		res := r.Run(name, cfg)
		cov, acc := levelStats(res)
		t.AddRow(name,
			pct(cov[1]), pct(cov[2]), pct(cov[3]),
			pct(acc[1]), pct(acc[2]), pct(acc[3]))
	}
	t.Notes = append(t.Notes,
		"paper's claims: PMP has the highest L2C/LLC coverage and the highest L2C accuracy;",
		"L2C/LLC accuracies are much lower than L1D accuracies for all prefetchers")
	return t
}

// Fig10 reproduces Fig 10: average useful and useless prefetches per
// trace, per cache level.
func Fig10(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:    "F10",
		Title: "Average useful/useless prefetches per trace (paper Fig 10)",
		Header: []string{"Prefetcher",
			"L1D useful", "L1D useless",
			"L2C useful", "L2C useless",
			"LLC useful", "LLC useless"},
	}
	for _, name := range EvalNames() {
		res := r.Run(name, cfg)
		n := float64(len(res.Results))
		var u, x [4]float64
		for _, p := range res.Results {
			u[1] += float64(p.L1D.UsefulPrefetch)
			u[2] += float64(p.L2C.UsefulPrefetch)
			u[3] += float64(p.LLC.UsefulPrefetch)
			x[1] += float64(p.L1D.UselessPrefetx)
			x[2] += float64(p.L2C.UselessPrefetx)
			x[3] += float64(p.LLC.UselessPrefetx)
		}
		t.AddRow(name,
			f1(u[1]/n), f1(x[1]/n), f1(u[2]/n), f1(x[2]/n), f1(u[3]/n), f1(x[3]/n))
	}
	t.Notes = append(t.Notes,
		"paper's claims: PMP restricts useless L1D prefetches while producing the most useful L2C/LLC prefetches")
	return t
}

// NMT reproduces §V-D: normalized memory traffic, including PMP-Limit,
// plus the per-trace prefetch issue volumes behind the paper's "PMP
// issues 58.0% more prefetches than Bingo" observation.
func NMT(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:     "NMT",
		Title:  "Normalized memory traffic (paper §V-D)",
		Header: []string{"Prefetcher", "NMT", "NIPC", "issued/trace"},
	}
	names := append(EvalNames(), NamePMPLimit)
	issued := map[string]float64{}
	for _, name := range names {
		res := r.Run(name, cfg)
		var total float64
		for _, rr := range res.Results {
			total += float64(rr.PF.Total())
		}
		issued[name] = total / float64(len(res.Results))
		t.AddRow(name, pct(res.NMT()), f3(res.NIPC()), f1(issued[name]))
	}
	if issued[NameBingo] > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("PMP issues %+.1f%% more prefetches than Bingo (paper: +58.0%%)",
				100*(issued[NamePMP]/issued[NameBingo]-1)))
	}
	t.Notes = append(t.Notes,
		"paper: SPP+PPF 129.0%, Pythia 139.1%, DSPatch 159.8%, Bingo 164.2%, PMP 199.6% (highest), PMP-Limit 159.0%")
	return t
}

// tableVIII reproduces Table VIII: Design B NIPC vs associativity, with
// PMP for reference.
var tableVIII = &grid{
	id:     "T8",
	title:  "Design B performance vs ways (paper Table VIII)",
	header: []string{"Design", "NIPC"},
	rows: append(sweepRows([]int{8, 32, 128, 512}, func(ways int) gridRow {
		c := core.DefaultDesignBConfig()
		c.Ways = ways
		v := VariantSpec{Name: fmt.Sprintf("designb-%dw", ways), DesignB: &c}
		return gridRow{lead: []string{v.Name}, core: v}
	}), gridRow{lead: []string{"pmp (merging)"}, core: RegistryVariant(NamePMP)}),
	cell: nipcCell,
	notes: []string{
		"paper: Design B 1.176/1.188/1.215/1.224 for 8/32/128/512 ways; PMP outperforms 512-way by 34.9%"},
}

// extraction reproduces §V-E2: AFE vs ANE vs ARE.
var extraction = &grid{
	id:     "EXT",
	title:  "Prefetch pattern extraction schemes (paper §V-E2)",
	header: []string{"Scheme", "NIPC"},
	rows: sweepRows([]core.Scheme{core.AFE, core.ANE, core.ARE}, func(sc core.Scheme) gridRow {
		return gridRow{lead: []string{sc.String()},
			core: PMPVariant("pmp-"+sc.String(), func(c *core.Config) { c.Scheme = sc })}
	}),
	cell: nipcCell,
	notes: []string{
		"paper: AFE +65.2% over baseline; ANE 2.9% below AFE; ARE far below (+5.0% only, stream patterns lost)"},
}

// multiFeature reproduces §V-E3: dual tables vs combined feature vs
// single-table variants.
var multiFeature = &grid{
	id:     "MF",
	title:  "Multi-feature prediction structures (paper §V-E3)",
	header: []string{"Structure", "NIPC", "storage"},
	rows: sweepRows([]core.FeatureMode{core.DualTables, core.Combined, core.OPTOnly, core.PPTOnly}, func(fm core.FeatureMode) gridRow {
		v := PMPVariant("pmp-"+fm.String(), func(c *core.Config) { c.Feature = fm })
		return gridRow{lead: []string{fm.String()}, core: v, tail: []string{kbytes(v.PMP.Storage().TotalBytes())}}
	}),
	cell:  nipcCell,
	notes: []string{"paper: combined -3.1%, single OPT -2.4%, single PPT -3.5% vs the dual structure"},
}

// tableIX reproduces Table IX: pattern length (region size) sweep.
var tableIX = &grid{
	id:     "T9",
	title:  "Pattern length sweep (paper Table IX)",
	header: []string{"Length", "Region", "Overhead", "NIPC"},
	rows: sweepRows([]int{4096, 2048, 1024}, func(reg int) gridRow {
		n := reg / mem.LineBytes
		v := PMPVariant(fmt.Sprintf("pmp-%d", n), func(c *core.Config) { c.RegionBytes = reg })
		return gridRow{lead: []string{fmt.Sprint(n), fmt.Sprintf("%dKB", reg/1024), kbytes(v.PMP.Storage().TotalBytes())}, core: v}
	}),
	cell:  nipcCell,
	notes: []string{"paper: 1.652 / 1.626 / 1.572 for lengths 64/32/16 at 4.3/2.5/1.6 KB"},
}

// tableXOffsetWidth reproduces Table X (left): trigger offset width.
var tableXOffsetWidth = &grid{
	id:     "T10a",
	title:  "Trigger offset width sweep (paper Table X left)",
	header: []string{"Width (b)", "NIPC", "OPT size"},
	rows: sweepRows([]int{6, 7, 8, 9, 10, 11, 12}, func(b int) gridRow {
		v := PMPVariant(fmt.Sprintf("pmp-tw%d", b), func(c *core.Config) { c.TriggerBits = b })
		return gridRow{lead: []string{fmt.Sprint(b)}, core: v, tail: []string{kbytes(float64(v.PMP.Storage().OPTBits) / 8)}}
	}),
	cell:  nipcCell,
	notes: []string{"paper: 1.652 -> 1.658 from 6b to 12b while the OPT grows 64x; gain is negligible"},
}

// tableXCounterSize reproduces Table X (right): OPT counter width.
var tableXCounterSize = &grid{
	id:     "T10b",
	title:  "OPT counter size sweep (paper Table X right)",
	header: []string{"Counter (b)", "NIPC"},
	rows: sweepRows([]int{2, 3, 4, 5, 6, 7, 8}, func(b int) gridRow {
		return gridRow{lead: []string{fmt.Sprint(b)},
			core: PMPVariant(fmt.Sprintf("pmp-cs%d", b), func(c *core.Config) { c.OPTCounterBits = b })}
	}),
	cell:  nipcCell,
	notes: []string{"paper: monotone 1.624 -> 1.655 from 2b to 8b (longer history helps)"},
}

// tableXI reproduces Table XI: PPT monitoring range.
var tableXI = &grid{
	id:     "T11",
	title:  "Monitoring range sweep (paper Table XI)",
	header: []string{"Range", "NIPC", "PPT size"},
	rows: sweepRows([]int{1, 2, 4, 8}, func(mr int) gridRow {
		v := PMPVariant(fmt.Sprintf("pmp-mr%d", mr), func(c *core.Config) { c.MonitoringRange = mr })
		return gridRow{lead: []string{fmt.Sprint(mr)}, core: v, tail: []string{fmt.Sprintf("%d B", v.PMP.Storage().PPTBits/8)}}
	}),
	cell:  nipcCell,
	notes: []string{"paper: 1.650 / 1.652 / 1.630 / 1.615 for ranges 1/2/4/8"},
}

// fig12Bandwidth reproduces Fig 12a: NIPC vs DRAM transfer rate.
var fig12Bandwidth = &grid{
	id:     "F12a",
	title:  "Performance vs memory bandwidth (paper Fig 12a)",
	header: []string{"Prefetcher", "800", "1600", "3200", "6400"},
	rows:   sweepRows(EvalNames(), registryRow),
	cols:   axis(sim.Config.WithBandwidth, 800, 1600, 3200, 6400),
	cell:   nipcCell,
	notes: []string{
		"paper: PMP leads at >= 1600 MT/s, slightly trails Bingo/SPP+PPF/Pythia at 800 MT/s (bandwidth hunger)"},
}

// fig12LLC reproduces Fig 12b: NIPC vs LLC capacity.
var fig12LLC = &grid{
	id:     "F12b",
	title:  "Performance vs LLC size (paper Fig 12b)",
	header: []string{"Prefetcher", "2MB", "4MB", "8MB"},
	rows:   sweepRows(EvalNames(), registryRow),
	cols:   axis(sim.Config.WithLLCMB, 2, 4, 8),
	cell:   nipcCell,
	notes: []string{
		"paper: PMP leads at every size; the PMP-Bingo gap widens with LLC size (pollution tolerance)"},
}

// mixJob builds one multicore run spec: the traces cycled across n
// cores, every core training a fresh instance of the variant, with
// trace replay on (each trace wraps until every core's measurement
// window completes).
func mixJob(v VariantSpec, specs []trace.Spec, n, records int, cfg sim.Config) runspec.RunSpec {
	cores := make([]runspec.CoreSpec, n)
	for i := range cores {
		cores[i] = runspec.CoreSpec{Trace: traceRef(specs[i%len(specs)]), Variant: v}
	}
	return runspec.RunSpec{
		Cores:   cores,
		Records: records,
		Config:  cfg,
		Replay:  true,
	}
}

// coreNIPC returns the geomean per-core IPC ratio of one multicore run
// against its same-mix baseline.
func coreNIPC(pf, base []sim.Result) float64 {
	var sum float64
	n := 0
	for i := range pf {
		if b := base[i].IPC(); b > 0 {
			sum += math.Log(pf[i].IPC() / b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Fig13 reproduces Fig 13: 4-core homogeneous and heterogeneous mixes.
// Every mix is one multicore run spec through the runner's scheduler —
// deduplicated, persisted and distributable exactly like the
// single-core jobs.
func Fig13(r *Runner) *Table {
	scale := r.Scale
	cfg := scale.Config()
	cfg.DRAM.Channels = 2
	if cfg.Measure == 0 {
		cfg.Measure = 400_000
	}

	t := &Table{
		ID:     "F13",
		Title:  "4-core performance, geomean per-core NIPC (paper Fig 13)",
		Header: []string{"Prefetcher", "homogeneous", "heterogeneous", "ALL"},
	}

	// Homogeneous: each of the runner's homogeneous traces on all four
	// cores. Heterogeneous: Table VII-style mixes drawn from the MPKI
	// classes of its mix pool.
	homoSpecs := r.homo()
	pick := r.mixPicker()
	// Table VII's six mix types; nMix instances each (the paper uses 10
	// per type — used at full scale, 1 otherwise).
	nMix := 1
	if scale.Traces >= 125 {
		nMix = 10
	}
	var mixes [][]trace.Spec
	L, M, H := trace.LowMPKI, trace.MediumMPKI, trace.HighMPKI
	types := [][4]trace.MPKIClass{
		{L, L, L, L}, {M, M, M, M}, {H, H, H, H},
		{L, L, M, M}, {L, L, H, H}, {M, M, H, H},
	}
	for rep := 0; rep < nMix; rep++ {
		for _, ty := range types {
			mixes = append(mixes, []trace.Spec{
				pick(ty[0], 4*rep), pick(ty[1], 4*rep+1),
				pick(ty[2], 4*rep+2), pick(ty[3], 4*rep+3),
			})
		}
	}

	// One job per mix per prefetcher: homogeneous mixes first, then the
	// heterogeneous ones, so res[i] aligns with base[i].
	jobsFor := func(name string) []runspec.RunSpec {
		v := RegistryVariant(name)
		jobs := make([]runspec.RunSpec, 0, len(homoSpecs)+len(mixes))
		for _, sp := range homoSpecs {
			jobs = append(jobs, mixJob(v, []trace.Spec{sp}, 4, scale.Records, cfg))
		}
		for _, mix := range mixes {
			jobs = append(jobs, mixJob(v, mix, 4, scale.Records, cfg))
		}
		return jobs
	}
	base := r.runJobs(jobsFor(NameNone))

	names := append(EvalNames(), NamePMPLimit)
	for _, name := range names {
		res := r.runJobs(jobsFor(name))
		var hoSum, heSum float64
		for i := range homoSpecs {
			hoSum += math.Log(coreNIPC(res[i], base[i]))
		}
		ho := math.Exp(hoSum / float64(len(homoSpecs)))
		for i := range mixes {
			j := len(homoSpecs) + i
			heSum += math.Log(coreNIPC(res[j], base[j]))
		}
		he := math.Exp(heSum / float64(len(mixes)))
		all := math.Exp((hoSum + heSum) / float64(len(homoSpecs)+len(mixes)))
		t.AddRow(name, f3(ho), f3(he), f3(all))
	}
	t.Notes = append(t.Notes,
		"paper: PMP beats DSPatch +39.6%, SPP+PPF +7.3%, Pythia +6.9%; matches Bingo; PMP-Limit +1% over Bingo")
	return t
}

// Related is an extension experiment: the related-work prefetchers
// (§VI: next-line, PC-stride, BOP, Sandbox, VLDP, SMS) on the same
// suite, alongside PMP — the comparison an open-source release of the
// paper's system would ship with.
func Related(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:     "REL",
		Title:  "Related-work prefetchers (extension; paper §VI discussion)",
		Header: []string{"Prefetcher", "NIPC", "NMT", "storage"},
	}
	names := append(RelatedNames(), NamePMP)
	for _, name := range names {
		res := r.Run(name, cfg)
		kb := float64(NewPrefetcher(name).StorageBits()) / 8 / 1024
		t.AddRow(name, f3(res.NIPC()), pct(res.NMT()), fmt.Sprintf("%.1f KB", kb))
	}
	t.Notes = append(t.Notes,
		"constant-stride designs (nextline/stride/BOP/Sandbox) are cheap but miss complex patterns (§VI-A);",
		"VLDP shares delta history; SMS replays stored per-event patterns (PMP's starting point);",
		"temporal designs (GHB/ISB/MISB/Triage, §VI-C) are retired: they need recurring miss sequences, which no suite trace has (docs/prefetchers.md)")
	return t
}

// ablations quantifies the simulator- and design-level mechanisms that
// DESIGN.md calls out, beyond the paper's own sweeps: counter-vector
// halving (aging) and the prefetch buffer's continue-on-reaccess
// behaviour.
var ablations = &grid{
	id:     "ABL",
	title:  "PMP mechanism ablations (extension; not a paper artifact)",
	header: []string{"Variant", "NIPC", "NMT"},
	rows: []gridRow{
		pmpRow("pmp (default)", nil),
		pmpRow("no halving (frozen counters)", func(c *core.Config) { c.NoHalving = true }),
		pmpRow("no PB resume", func(c *core.Config) { c.NoResume = true }),
		pmpRow("no halving + no resume", func(c *core.Config) { c.NoHalving = true; c.NoResume = true }),
		pmpRow("cross-region projection", func(c *core.Config) { c.CrossRegion = true }),
	},
	cell: nipcNMTCell,
	notes: []string{
		"halving keeps frequencies adaptive across phases; PB resume recovers prefetches suspended on full queues;",
		"cross-region projection issues wrapping targets into the next region (the paper's unsupported cross-page case)"},
}

// Placement reproduces the paper's §V-B placement claim: "PMP (at L1)
// outperforms the original Bingo at LLC by 16.5%". The original
// (non-doubled) Bingo is attached at the LLC, training on LLC demand
// accesses and filling the LLC only.
func Placement(r *Runner) *Table {
	cfg := r.Scale.Config()
	t := &Table{
		ID:     "PLC",
		Title:  "Prefetcher placement (paper §V-B: PMP@L1 vs original Bingo@LLC)",
		Header: []string{"Configuration", "NIPC"},
	}

	pmpRes := r.Run(NamePMP, cfg)
	t.AddRow("PMP at L1D", f3(pmpRes.NIPC()))

	// Original (non-doubled) Bingo: half the enhanced PHT, placed at
	// the LLC of an otherwise prefetcher-less machine. The placement
	// travels in the run spec, so remote workers reconstruct the same
	// system shape, and the run is labeled from the spec
	// ("none+bingo@llc@L2").
	llcBingo := r.RunPlaced(RegistryVariant(NameNone),
		[]runspec.Placement{{Level: 2, Variant: BingoLLCVariant()}}, cfg)
	t.AddRow("original Bingo at LLC", f3(llcBingo.NIPC()))

	if b := llcBingo.NIPC(); b > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("PMP@L1 over Bingo@LLC: %+.1f%% (paper: +16.5%%)",
				100*(pmpRes.NIPC()/b-1)))
	}
	t.Notes = append(t.Notes,
		"our OOO-window core under-prices upper-level miss latency, flattering LLC placement (see EXPERIMENTS.md)")
	return t
}

// Inclusion is an extension sweep over the hierarchy-shape knobs the
// N-level machine exposes: PMP on the default inclusive LLC, on a
// ChampSim-style non-inclusive LLC, and on a 2-level hierarchy with no
// L2C. Each variant is normalized against the non-prefetching baseline
// of the same hierarchy.
func Inclusion(r *Runner) *Table {
	t := &Table{
		ID:     "INC",
		Title:  "Hierarchy shape: inclusion policy and depth (extension; not a paper artifact)",
		Header: []string{"Hierarchy", "NIPC", "NMT"},
	}
	variants := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"3-level, inclusive LLC (default)", func(*sim.Config) {}},
		{"3-level, non-inclusive LLC", func(c *sim.Config) {
			c.Levels = []sim.LevelSpec{
				{Cache: c.L1D},
				{Cache: c.L2C},
				{Cache: c.LLC, Shared: true},
			}
		}},
		{"2-level (no L2C), inclusive LLC", func(c *sim.Config) {
			c.Levels = []sim.LevelSpec{
				{Cache: c.L1D},
				{Cache: c.LLC, Shared: true, Inclusive: true},
			}
		}},
	}
	for _, v := range variants {
		cfg := r.Scale.Config()
		v.mut(&cfg)
		res := r.Run(NamePMP, cfg)
		t.AddRow(v.name, f3(res.NIPC()), pct(res.NMT()))
	}
	t.Notes = append(t.Notes,
		"non-inclusive LLCs skip back-invalidation, so hot L1/L2 lines survive LLC pressure;",
		"dropping the L2C exposes every L1D miss to LLC latency, raising the stakes on L1 prefetch coverage")
	return t
}

// thresholds is an extension sweep over PMP's AFE thresholds, which
// the paper fixes at T_l1d=50% / T_l2c=15% without a sweep: it shows
// where those defaults sit in the design space.
var thresholds = &grid{
	id:     "THR",
	title:  "AFE threshold sweep (extension; paper fixes 50%/15%)",
	header: []string{"T_l1d", "T_l2c", "NIPC", "NMT"},
	rows: sweepRows([][2]float64{
		{0.25, 0.15}, {0.50, 0.15}, {0.75, 0.15},
		{0.50, 0.05}, {0.50, 0.30}, {0.75, 0.50},
	}, func(p [2]float64) gridRow {
		return gridRow{lead: []string{pct(p[0]), pct(p[1])},
			core: PMPVariant(fmt.Sprintf("pmp-%g-%g", p[0], p[1]), func(c *core.Config) { c.TL1D, c.TL2C = p[0], p[1] })}
	}),
	cell: nipcNMTCell,
	notes: []string{
		"lower T_l1d trades L1D pollution for coverage; higher T_l2c trims the low-level spray"},
}
