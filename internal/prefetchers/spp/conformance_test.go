package spp_test

import (
	"testing"

	"pmp/internal/prefetch"
	"pmp/internal/prefetch/check/conformance"
	"pmp/internal/prefetchers/spp"
)

// TestConformance registers this prefetcher with the shared runtime
// contract harness (see internal/prefetch/check/conformance).
func TestConformance(t *testing.T) {
	conformance.Run(t, func() prefetch.Prefetcher { return spp.New() })
}
