package conformance_test

import (
	"fmt"
	"strings"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/prefetch/check/conformance"
	"pmp/internal/prefetchers/nextline"
)

// TestAllRegisteredPrefetchers runs the contract harness over every
// prefetcher in the bench registry, so a prefetcher added to the
// registry cannot ship without passing the contract — even before its
// package adds its own one-line conformance test.
func TestAllRegisteredPrefetchers(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			var opts []conformance.Option
			if name == bench.NameNone {
				opts = append(opts, conformance.AllowZeroStorage())
			}
			conformance.Run(t, func() prefetch.Prefetcher { return bench.NewPrefetcher(name) }, opts...)
		})
	}
}

// recorder stands in for *testing.T so harness failures can be
// asserted rather than propagated.
type recorder struct {
	violations []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// overIssuer violates the IssueInto(dst, max) bound.
type overIssuer struct{ prefetch.Nop }

func (overIssuer) Name() string { return "over-issuer" }

func (overIssuer) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	for i := 0; i <= max; i++ {
		dst = append(dst, prefetch.Request{Addr: mem.Addr(i * mem.LineBytes), Level: prefetch.LevelL1})
	}
	return dst
}

func (overIssuer) StorageBits() int { return 8 }

// TestHarnessCatchesOverIssue is the meta-test: deliberately breaking
// the IssueInto contract must fail the harness.
func TestHarnessCatchesOverIssue(t *testing.T) {
	rec := &recorder{}
	conformance.Run(rec, func() prefetch.Prefetcher { return overIssuer{} })
	found := false
	for _, v := range rec.violations {
		if strings.Contains(v, "over budget") || strings.Contains(v, "max <= 0") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("harness missed an over-budget IssueInto; violations: %v", rec.violations)
	}
}

// unalignedIssuer emits a mid-line target.
type unalignedIssuer struct{ prefetch.Nop }

func (unalignedIssuer) Name() string { return "unaligned-issuer" }

func (unalignedIssuer) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	if max < 1 {
		return dst
	}
	return append(dst, prefetch.Request{Addr: mem.Addr(mem.LineBytes + 4), Level: prefetch.LevelL1})
}

func (unalignedIssuer) StorageBits() int { return 8 }

// TestTimelinessAllRegisteredPrefetchers runs the late-fill timeliness
// scenario over every prefetcher in the registry: on a widely spaced
// stream, a prefetcher that consumes prefetches must get at least some
// of them filled before the demand arrives.
func TestTimelinessAllRegisteredPrefetchers(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			conformance.RunTimeliness(t, func() prefetch.Prefetcher { return bench.NewPrefetcher(name) })
		})
	}
}

// TestTimelinessAcceptsTimelyPrefetcher pins the scenario's pass side:
// a plain next-line prefetcher on the wide-gap stream has hundreds of
// cycles of slack and must not be flagged.
func TestTimelinessAcceptsTimelyPrefetcher(t *testing.T) {
	rec := &recorder{}
	conformance.RunTimeliness(rec, func() prefetch.Prefetcher { return nextline.New(2) })
	if len(rec.violations) != 0 {
		t.Fatalf("timely prefetcher flagged: %v", rec.violations)
	}
}

// TestTimelinessCatchesLateFills is the meta-test: with DRAM slowed so
// far that no fill can complete inside the run, every used prefetch is
// late and the scenario must fail.
func TestTimelinessCatchesLateFills(t *testing.T) {
	cfg := conformance.TimelinessConfig()
	cfg.DRAM.LatencyCycles = 5_000_000
	rec := &recorder{}
	conformance.RunTimelinessAt(rec, func() prefetch.Prefetcher { return nextline.New(2) }, cfg)
	found := false
	for _, v := range rec.violations {
		if strings.Contains(v, "none filled before its demand") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("scenario missed an all-late prefetcher; violations: %v", rec.violations)
	}
}

func TestHarnessCatchesUnalignedTarget(t *testing.T) {
	rec := &recorder{}
	conformance.Run(rec, func() prefetch.Prefetcher { return unalignedIssuer{} })
	found := false
	for _, v := range rec.violations {
		if strings.Contains(v, "not line-aligned") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("harness missed an unaligned target; violations: %v", rec.violations)
	}
}
