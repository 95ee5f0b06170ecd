package main

import (
	"os"
	"strings"
	"testing"

	"pmp/internal/bench"
)

// TestReferenceOutputCoversIndex checks that the checked-in DefaultScale
// output, docs/results-default.txt, holds a table for every experiment
// in the index. EXTW needs a manifest and is not in the index.
func TestReferenceOutputCoversIndex(t *testing.T) {
	data, err := os.ReadFile("../../docs/results-default.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := "\n" + string(data)
	for _, e := range bench.Experiments(nil) {
		if !strings.Contains(out, "\n== "+e.ID+": ") {
			t.Errorf("docs/results-default.txt has no %q table; regenerate it with pmpexperiments -scale default", e.ID)
		}
	}
}
