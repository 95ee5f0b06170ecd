package lint_test

import (
	"testing"

	"pmp/internal/lint"
	"pmp/internal/lint/linttest"
)

func TestDeterminismMapOrder(t *testing.T) {
	linttest.Run(t, lint.Determinism, linttest.Fixture(lint.Determinism))
}

// The wall-clock rules are scoped by package path, so their fixtures
// type-check under synthetic simulator and sweep import paths.
func TestDeterminismSimClock(t *testing.T) {
	linttest.RunAt(t, lint.Determinism, "testdata/determinismsim", "pmp/internal/sim/fixture")
}

func TestDeterminismJobIdentity(t *testing.T) {
	linttest.RunAt(t, lint.Determinism, "testdata/determinismrunspec", "pmp/internal/runspec/fixture")
}
