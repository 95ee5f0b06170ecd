// Command pmpanalyze reproduces the paper's Section III pattern
// analysis on one trace or the suite: pattern collision/duplicate rates
// (Table I), frequency concentration (Fig 2), ICDD per feature (Fig 4)
// and offset heat maps (Fig 5).
//
// Usage:
//
//	pmpanalyze -trace spec06.mcf-26 -heatmap trigger
//	pmpanalyze -suite 12 -records 200000
package main

import (
	"flag"
	"fmt"
	"os"

	"pmp/internal/analysis"
	"pmp/internal/trace"
)

func main() {
	traceName := flag.String("trace", "", "single suite trace to analyze")
	suite := flag.Int("suite", 0, "analyze a representative subset of N suite traces")
	records := flag.Int("records", 200_000, "records per trace")
	heatmap := flag.String("heatmap", "", "render a heat map: trigger, pc, pcaddr, addr, pctrigger")
	flag.Parse()

	var corpus *analysis.Corpus
	switch {
	case *traceName != "":
		src, err := findTrace(*traceName, *records)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		corpus = analysis.Capture(src, 0)
	case *suite > 0:
		var srcs []trace.Source
		for _, sp := range trace.Representative(*suite) {
			srcs = append(srcs, sp.New(*records))
		}
		corpus = analysis.CaptureAll(srcs, 0)
	default:
		fmt.Fprintln(os.Stderr, "pmpanalyze: need -trace or -suite")
		os.Exit(2)
	}

	if *heatmap != "" {
		f, err := featureByName(*heatmap)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("heat map (%s), rows = feature index, cols = offset:\n", f)
		fmt.Print(analysis.RenderHeatMap(analysis.HeatMap(corpus, f)))
		return
	}

	fmt.Printf("patterns captured: %d\n\n", len(corpus.Patterns))

	fmt.Println("Table I — collision and duplicate rates:")
	fmt.Printf("%-26s %10s %10s\n", "feature", "PCR", "PDR")
	for _, f := range analysis.Features() {
		pcr, pdr := analysis.PCRPDR(corpus, f)
		fmt.Printf("%-26s %10.1f %10.1f\n", f, pcr, pdr)
	}

	st := analysis.Frequencies(corpus, []int{10, 100, 1000})
	fmt.Printf("\nFig 2 — frequency concentration:\n")
	fmt.Printf("distinct %d of %d occurrences; %.1f%% seen once\n",
		st.Distinct, st.Occurrences, 100*st.OnceFrac)
	fmt.Printf("top-10 %.1f%%, top-100 %.1f%%, top-1000 %.1f%%\n",
		100*st.TopShare[0], 100*st.TopShare[1], 100*st.TopShare[2])

	fmt.Printf("\nFig 4 — average ICDD by clustering feature (lower = more similar):\n")
	for _, f := range analysis.Features() {
		fmt.Printf("%-26s %8.3f\n", f, analysis.ICDD(corpus, f))
	}
}

func findTrace(name string, records int) (trace.Source, error) {
	if sp, ok := trace.ByName(name); ok {
		return sp.New(records), nil
	}
	return nil, fmt.Errorf("pmpanalyze: unknown trace %q", name)
}

func featureByName(name string) (analysis.Feature, error) {
	switch name {
	case "trigger":
		return analysis.FeatTriggerOffset, nil
	case "pc":
		return analysis.FeatPC, nil
	case "pcaddr":
		return analysis.FeatPCAddress, nil
	case "addr":
		return analysis.FeatAddress, nil
	case "pctrigger":
		return analysis.FeatPCTrigger, nil
	default:
		return 0, fmt.Errorf("pmpanalyze: unknown feature %q", name)
	}
}
