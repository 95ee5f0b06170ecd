// Package golden stands in for the simulator's digest tests: it pins
// behaviour that the fixture's own unit test does not check.
package golden

import (
	"testing"

	"pmp/internal/mutation/testdata/fixture"
)

func TestGoldenDouble(t *testing.T) {
	if fixture.Double(4) != 8 {
		t.Fatal("Double(4) != 8")
	}
}
