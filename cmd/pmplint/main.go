// Command pmplint runs the repository's custom static-analysis suite
// (internal/lint) over the whole module, enforcing the simulator
// invariants described in docs/linting.md. It takes no package
// patterns: the call graph behind hotalloc and determinism needs every
// package, so a subset would hide findings and misjudge suppressions.
//
// Standalone use, from anywhere inside the module:
//
//	go run ./cmd/pmplint
//	go run ./cmd/pmplint -analyzers magicgeometry,cyclemath
//	go run ./cmd/pmplint -json > lint.jsonl
//
// With -json, each diagnostic is emitted as one JSON object per line
// ({"analyzer", "file", "line", "col", "message"}), for machine
// consumption (the CI lint artifact).
//
// Exit status is 1 when diagnostics are reported, 2 on a usage error,
// 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmp/internal/lint"
)

func main() {
	var (
		analyzerList = flag.String("analyzers", "", "comma-separated analyzers to run (default: all)")
		list         = flag.Bool("list", false, "list available analyzers and exit")
		jsonOut      = flag.Bool("json", false, "emit one JSON object per diagnostic on stdout")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: pmplint [-analyzers a,b] [-json] [-list]; it checks the whole module and takes no packages")
		os.Exit(2)
	}

	var names []string
	if *analyzerList != "" {
		names = strings.Split(*analyzerList, ",")
	}
	analyzers, err := lint.ByName(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmplint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := lint.Load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmplint:", err)
		os.Exit(1)
	}
	diags := lint.Run(pkgs, analyzers)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			enc.Encode(jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pmplint: %d issue(s) found\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiagnostic is the -json wire shape: one object per line.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}
