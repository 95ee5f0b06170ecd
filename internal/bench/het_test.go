package bench

import (
	"strconv"
	"testing"
)

// hetScale keeps the HET structure pins cheap: one trace per class and
// short runs. The tables' shapes — not their numbers — are the
// contract here; the numbers are covered by the golden digests and the
// distributed smoke.
var hetScale = Scale{Traces: 1, Records: 12_000, Warmup: 3_000, Measure: 30_000}

// The HET family must keep its shape: HETS and HETB sweep the four
// stacked configurations, HETH the three hierarchy depths, HETM the
// five evaluated prefetchers over four mix classes. A renamed stack or
// a dropped hierarchy silently changes what the distributed runs
// compare, so the shapes are pinned here.
func TestHETTableShapes(t *testing.T) {
	r := NewRunner(hetScale)

	hets := hetStacking.run(r)
	if len(hets.Rows) != len(hetStacking.rows) || len(hets.Header) != 3 {
		t.Errorf("HETS: %dx%d, want %dx3", len(hets.Rows), len(hets.Header), len(hetStacking.rows))
	}

	heth := HETH(r)
	if len(heth.Rows) != len(hetHierarchies()) || len(heth.Header) != 3 {
		t.Errorf("HETH: %dx%d, want %dx3", len(heth.Rows), len(heth.Header), len(hetHierarchies()))
	}

	hetb := hetBandwidth.run(r)
	if len(hetb.Rows) != len(hetStacking.rows) || len(hetb.Header) != 5 {
		t.Errorf("HETB: %dx%d, want %dx5", len(hetb.Rows), len(hetb.Header), len(hetStacking.rows))
	}

	// Every NIPC cell must parse and be positive: a zero or NaN means a
	// placement was silently dropped rather than simulated.
	for _, tbl := range []*Table{hets, heth, hetb} {
		for _, row := range tbl.Rows {
			for col := 1; col < len(row); col++ {
				cell := row[col]
				if cell[len(cell)-1] == '%' {
					cell = cell[:len(cell)-1]
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || v <= 0 {
					t.Errorf("%s row %q col %d: cell %q not a positive number", tbl.ID, row[0], col, row[col])
				}
			}
		}
	}
}

// HETM runs 8-core mixes; keep it to a single prefetcher's worth of
// work by relying on the tiny scale, and pin the row/column shape.
func TestHETMShape(t *testing.T) {
	if testing.Short() {
		t.Skip("8-core mixes are the slowest HET leg")
	}
	tbl := HETM(NewRunner(hetScale))
	if len(tbl.Rows) != len(EvalNames()) {
		t.Errorf("HETM rows = %d, want %d", len(tbl.Rows), len(EvalNames()))
	}
	for _, row := range tbl.Rows {
		if len(row) != 6 { // name, 4 mixes, geomean
			t.Fatalf("HETM row %q has %d cells, want 6", row[0], len(row))
		}
		for col := 1; col < len(row); col++ {
			if v, err := strconv.ParseFloat(row[col], 64); err != nil || v <= 0 {
				t.Errorf("HETM row %q col %d: cell %q not a positive number", row[0], col, row[col])
			}
		}
	}
}
