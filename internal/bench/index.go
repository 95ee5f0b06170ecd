package bench

import "pmp/internal/trace"

// Experiment is one entry of the experiment index: the ID that names a
// table or figure (DESIGN.md §5), its one-line description, and the
// builder that renders it on a runner.
type Experiment struct {
	ID, Desc string
	Run      func(*Runner) *Table
}

// Experiments returns the experiment index in DESIGN.md order. When ext
// holds external traces (a pmpexperiments -manifest), EXTW — the
// registry over those traces — joins at the end.
func Experiments(ext []trace.Spec) []Experiment {
	index := []Experiment{
		{"T1", "Table I: pattern collision/duplicate rates", TableI},
		{"F2", "Fig 2: pattern frequency concentration", Fig2},
		{"F4", "Fig 4: ICDD per clustering feature", Fig4},
		{"F5", "Fig 5: pattern heat maps", Fig5},
		{"T3", "Tables II/III/V: storage overhead", func(*Runner) *Table { return Storage() }},
		{"F8", "Fig 8: single-core NIPC", Fig8},
		{"F9", "Fig 9: coverage and accuracy", Fig9},
		{"F10", "Fig 10: useful/useless prefetches", Fig10},
		{"NMT", "§V-D: normalized memory traffic", NMT},
		{"T8", "Table VIII: Design B ways sweep", TableVIII},
		{"EXT", "§V-E2: extraction schemes", Extraction},
		{"MF", "§V-E3: multi-feature structures", MultiFeature},
		{"T9", "Table IX: pattern length sweep", TableIX},
		{"T10a", "Table X: trigger offset width sweep", TableXOffsetWidth},
		{"T10b", "Table X: counter size sweep", TableXCounterSize},
		{"T11", "Table XI: monitoring range sweep", TableXI},
		{"F12a", "Fig 12a: bandwidth sensitivity", Fig12Bandwidth},
		{"F12b", "Fig 12b: LLC size sensitivity", Fig12LLC},
		{"F13", "Fig 13: 4-core performance", Fig13},
		{"ABL", "extension: PMP mechanism ablations", Ablations},
		{"REL", "extension: related-work prefetchers (§VI)", Related},
		{"PLC", "§V-B: PMP@L1 vs original Bingo@LLC placement", Placement},
		{"INC", "extension: inclusion policy and hierarchy depth", Inclusion},
		{"THR", "extension: AFE threshold sweep", Thresholds},
		{"HETS", "extension: heterogeneous stacking (PMP@L1D + Bingo deeper)", HETS},
		{"HETM", "extension: 8-core heterogeneous trace mixes", HETM},
		{"HETH", "extension: 2-/3-/4-level hierarchy depth", HETH},
		{"HETB", "extension: stacked prefetchers vs DRAM bandwidth", HETB},
	}
	if len(ext) > 0 {
		index = append(index, Experiment{"EXTW", "extension: external workloads from -manifest",
			func(r *Runner) *Table { return External(r.WithSpecs(ext)) }})
	}
	return index
}
