// Package conformance is the shared contract test harness for every
// prefetcher in the repository. Each prefetcher package registers
// itself with a one-line test:
//
//	func TestConformance(t *testing.T) {
//		conformance.Run(t, func() prefetch.Prefetcher { return New(DefaultConfig()) })
//	}
//
// Run drives a fresh instance through adversarial access patterns
// (sequential, strided, pointer-chase-like random, page hopscotch,
// eviction/fill feedback, and Requeuer round-trips) with every call
// passing through the check.Checker runtime contract wrapper, so a
// prefetcher that over-issues, emits unaligned or LevelNone requests,
// or reports an unstable storage budget cannot ship.
package conformance

import (
	"math/rand"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/prefetch/check"
)

// TB is the slice of testing.TB the harness needs; using the narrow
// interface lets the harness's own tests record failures instead of
// failing.
type TB interface {
	Errorf(format string, args ...any)
}

// Option is re-exported so registrations can waive baseline-only
// checks (see check.AllowZeroStorage).
type Option = check.Option

// AllowZeroStorage waives the positive-StorageBits requirement for the
// non-prefetching baseline.
func AllowZeroStorage() Option { return check.AllowZeroStorage() }

// Run puts a freshly constructed prefetcher through the contract
// harness. It is deterministic: the "random" workload uses a fixed
// seed so failures reproduce.
func Run(t TB, mk func() prefetch.Prefetcher, opts ...Option) {
	inner := mk()
	p := check.Wrap(inner, t.Errorf, opts...)

	if name := p.Name(); name != "" {
		// Re-read to exercise the stability check.
		_ = p.Name()
	}
	_ = p.StorageBits()

	budgets := []int{0, 1, 3, 8, 64}
	cycle := uint64(0)
	// Every drain appends to one running buffer, so the checker's
	// dst-preservation assertion runs against a non-empty dst.
	var issued []prefetch.Request
	drain := func() {
		for _, max := range budgets {
			issued = p.IssueInto(issued, max)
		}
	}
	train := func(pc uint64, addr mem.Addr, hit bool) {
		cycle += 4
		p.Train(prefetch.Access{PC: pc, Addr: addr, Cycle: cycle, Hit: hit})
		drain()
	}

	// Sequential walk through several pages: the bread-and-butter
	// spatial pattern.
	base := mem.Addr(0x10_0000)
	for i := 0; i < 4*mem.LinesPerPage; i++ {
		train(0x400, base+mem.Addr(i*mem.LineBytes), i%3 != 0)
	}

	// Strided walks under distinct PCs, including a stride that
	// repeatedly crosses page boundaries.
	for _, stride := range []int{2, 7, mem.LinesPerPage + 1} {
		sb := mem.Addr(0x40_0000) + mem.Addr(stride)*mem.Addr(mem.PageBytes)
		for i := 0; i < 128; i++ {
			train(0x500+uint64(stride), sb+mem.Addr(i*stride*mem.LineBytes), i%2 == 0)
		}
	}

	// Seeded random chaos: unaligned byte addresses (the prefetcher
	// must still emit line-aligned targets), scattered PCs.
	rng := rand.New(rand.NewSource(0x9e3779b9))
	for i := 0; i < 512; i++ {
		addr := mem.Addr(rng.Uint64() >> 16) // keep within a plausible VA range
		train(0x600+uint64(rng.Intn(8)), addr, rng.Intn(2) == 0)
	}

	// Page hopscotch with evictions closing regions mid-pattern.
	for i := 0; i < 64; i++ {
		a := base + mem.Addr((i%8)*mem.PageBytes) + mem.Addr((i%mem.LinesPerPage)*mem.LineBytes)
		train(0x700, a, false)
		if i%4 == 0 {
			p.OnEvict(a.Line())
			drain()
		}
	}

	// Fill feedback, useful and useless.
	for i := 0; i < 32; i++ {
		p.OnFill(base+mem.Addr(i*mem.LineBytes), prefetch.LevelL2, i%2 == 0)
		drain()
	}

	// Requeuer round-trip: hand every request back, then re-issue.
	if rq, ok := p.(prefetch.Requeuer); ok {
		for i := 0; i < 2*mem.LinesPerPage; i++ {
			cycle += 4
			p.Train(prefetch.Access{PC: 0x800, Addr: base + mem.Addr(i*mem.LineBytes), Cycle: cycle, Hit: false})
		}
		base := len(issued)
		issued = p.IssueInto(issued, 16)
		reqs := issued[base:]
		for _, r := range reqs {
			rq.Requeue(r)
		}
		before := len(issued)
		issued = p.IssueInto(issued, len(reqs)+8)
		if len(reqs) > 0 && len(issued) == before {
			t.Errorf("conformance: %d requeued requests never re-issued", len(reqs))
		}
		drain()
	}

	// Budget and name must have stayed stable through the run.
	_ = p.StorageBits()
	_ = p.Name()
}
