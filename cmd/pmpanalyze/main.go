// Command pmpanalyze reproduces the paper's Section III pattern
// analysis on one trace or the suite: it prints the experiment index's
// Table I (pattern collision/duplicate rates), Fig 2 (frequency
// concentration) and Fig 4 (ICDD per feature, the mean over traces)
// tables, or one offset heat map (Fig 5).
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
	"pmp/internal/bench"
	"pmp/internal/trace"
)

func main() {
	traceName := flag.String("trace", "", "single suite trace to analyze")
	suite := flag.Int("suite", 0, "analyze a representative subset of N suite traces")
	records := flag.Int("records", 200_000, "records per trace")
	heatmap := flag.String("heatmap", "", "render a heat map: trigger, pc, pcaddr, addr, pctrigger")
	flag.Parse()

	var specs []trace.Spec
	switch {
	case *traceName != "":
		sp, ok := trace.ByName(*traceName)
		if !ok {
			fmt.Fprintf(os.Stderr, "pmpanalyze: unknown trace %q\n", *traceName)
			os.Exit(1)
		}
		specs = []trace.Spec{sp}
	case *suite > 0:
		specs = trace.Representative(*suite)
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
		srcs := make([]trace.Source, len(specs))
		for i, sp := range specs {
			srcs[i] = sp.New(*records)
		}
		fmt.Printf("heat map (%s), rows = feature index, cols = offset:\n", f)
		fmt.Print(analysis.RenderHeatMap(analysis.HeatMap(analysis.CaptureAll(srcs, 0), f)))
		return
	}

	r := bench.NewRunner(bench.Scale{Records: *records}).WithSpecs(specs)
	fmt.Println(bench.TableI(r))
	fmt.Println(bench.Fig2(r))
	fmt.Print(bench.Fig4(r))
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
