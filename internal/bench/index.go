package bench

import "pmp/internal/trace"

// Experiment is one entry of the experiment index: the ID that names a
// table or figure (DESIGN.md §5), its one-line description, and the
// builder that renders it on a runner. A grid table's entry carries
// the grid, and its builder is the grid's.
type Experiment struct {
	ID, Desc string
	Run      func(*Runner) *Table
	grid     *grid
}

// Experiments returns the experiment index in DESIGN.md order. When ext
// holds external traces (a pmpexperiments -manifest), EXTW — the
// registry over those traces — joins at the end.
func Experiments(ext []trace.Spec) []Experiment {
	index := []Experiment{
		{"T1", "Table I: pattern collision/duplicate rates", TableI, nil},
		{"F2", "Fig 2: pattern frequency concentration", Fig2, nil},
		{"F4", "Fig 4: ICDD per clustering feature", Fig4, nil},
		{"F5", "Fig 5: pattern heat maps", Fig5, nil},
		{"T3", "Tables II/III/V: storage overhead", func(*Runner) *Table { return Storage() }, nil},
		{"F8", "Fig 8: single-core NIPC", Fig8, nil},
		{"F9", "Fig 9: coverage and accuracy", Fig9, nil},
		{"F10", "Fig 10: useful/useless prefetches", Fig10, nil},
		{"NMT", "§V-D: normalized memory traffic", NMT, nil},
		{"T8", "Table VIII: Design B ways sweep", nil, tableVIII},
		{"EXT", "§V-E2: extraction schemes", nil, extraction},
		{"MF", "§V-E3: multi-feature structures", nil, multiFeature},
		{"T9", "Table IX: pattern length sweep", nil, tableIX},
		{"T10a", "Table X: trigger offset width sweep", nil, tableXOffsetWidth},
		{"T10b", "Table X: counter size sweep", nil, tableXCounterSize},
		{"T11", "Table XI: monitoring range sweep", nil, tableXI},
		{"F12a", "Fig 12a: bandwidth sensitivity", nil, fig12Bandwidth},
		{"F12b", "Fig 12b: LLC size sensitivity", nil, fig12LLC},
		{"F13", "Fig 13: 4-core performance", Fig13, nil},
		{"ABL", "extension: PMP mechanism ablations", nil, ablations},
		{"REL", "extension: related-work prefetchers (§VI)", Related, nil},
		{"PLC", "§V-B: PMP@L1 vs original Bingo@LLC placement", Placement, nil},
		{"INC", "extension: inclusion policy and hierarchy depth", Inclusion, nil},
		{"THR", "extension: AFE threshold sweep", nil, thresholds},
		{"HETS", "extension: heterogeneous stacking (PMP@L1D + Bingo deeper)", nil, hetStacking},
		{"HETM", "extension: 8-core heterogeneous trace mixes", HETM, nil},
		{"HETH", "extension: 2-/3-/4-level hierarchy depth", HETH, nil},
		{"HETB", "extension: stacked prefetchers vs DRAM bandwidth", nil, hetBandwidth},
	}
	for i, e := range index {
		if e.grid != nil {
			index[i].Run = e.grid.run
		}
	}
	if len(ext) > 0 {
		index = append(index, Experiment{"EXTW", "extension: external workloads from -manifest",
			func(r *Runner) *Table { return External(r.WithSpecs(ext)) }, nil})
	}
	return index
}
