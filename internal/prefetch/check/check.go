// Package check wraps a prefetch.Prefetcher in a runtime contract
// checker that asserts, on every call, the invariants the simulator
// relies on for meaningful cross-prefetcher comparisons:
//
//   - IssueInto(dst, max) keeps dst's existing entries and appends at
//     most max requests, none when max <= 0;
//   - every Request.Addr is line-aligned;
//   - every Request.Level is a real cache level (L1/L2/LLC), never
//     LevelNone or an out-of-range value;
//   - Name() is non-empty and stable across calls;
//   - StorageBits() is positive (unless explicitly waived for the
//     non-prefetching baseline) and stable across calls.
//
// The conformance harness (package check/conformance) drives every
// registered prefetcher through this wrapper; simulator code can also
// wrap any prefetcher for debugging without changing behaviour, since
// the checker forwards all calls unmodified.
package check

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// ReportFunc receives one formatted contract violation.
// (*testing.T).Errorf satisfies it.
type ReportFunc func(format string, args ...any)

// Option adjusts what the checker enforces.
type Option func(*Checker)

// AllowZeroStorage waives the positive-StorageBits requirement; only
// the non-prefetching baseline legitimately reports zero bits.
func AllowZeroStorage() Option {
	return func(c *Checker) { c.allowZeroStorage = true }
}

// Checker is the contract-checking wrapper. Construct with Wrap.
type Checker struct {
	inner  prefetch.Prefetcher
	report ReportFunc

	allowZeroStorage bool
	name             string
	storage          int
	seenName         bool
	seenStorage      bool
}

// Wrap returns p wrapped in contract checks that report through
// report. When p also implements prefetch.Requeuer the returned value
// does too, so the simulator's capability probing still works; a
// non-Requeuer prefetcher never gains a Requeue method from wrapping.
func Wrap(p prefetch.Prefetcher, report ReportFunc, opts ...Option) prefetch.Prefetcher {
	c := &Checker{inner: p, report: report}
	for _, o := range opts {
		o(c)
	}
	if rq, ok := p.(prefetch.Requeuer); ok {
		return &requeueChecker{Checker: c, rq: rq}
	}
	return c
}

// Name implements prefetch.Prefetcher, asserting the name is non-empty
// and stable.
func (c *Checker) Name() string {
	name := c.inner.Name()
	if name == "" {
		c.report("contract: Name() returned an empty string")
	}
	if c.seenName && name != c.name {
		//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
		c.report("contract: Name() unstable: %q then %q", c.name, name)
	}
	c.name, c.seenName = name, true
	//lint:ignore prefetcherimpl transparent wrapper forwards the inner prefetcher's name
	return name
}

// Train implements prefetch.Prefetcher.
func (c *Checker) Train(a prefetch.Access) { c.inner.Train(a) }

// IssueInto implements prefetch.Prefetcher, asserting that dst's
// existing contents are preserved, the count bound holds and every
// appended request is valid.
//
//pmp:hotpath
func (c *Checker) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	base := len(dst)
	out := c.inner.IssueInto(dst, max)
	if len(out) < base {
		//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
		c.report("contract: IssueInto shrank dst from %d to %d entries", base, len(out))
		return out
	}
	reqs := out[base:]
	if max <= 0 && len(reqs) > 0 {
		//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
		c.report("contract: IssueInto(dst, %d) appended %d requests, want none for max <= 0", max, len(reqs))
	} else if len(reqs) > max {
		//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
		c.report("contract: IssueInto(dst, %d) appended %d requests (over budget)", max, len(reqs))
	}
	for i, r := range reqs {
		if r.Addr.Line() != r.Addr {
			//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
			c.report("contract: IssueInto request %d target %#x is not line-aligned", i, uint64(r.Addr))
		}
		switch r.Level {
		case prefetch.LevelL1, prefetch.LevelL2, prefetch.LevelLLC:
		default:
			//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
			c.report("contract: IssueInto request %d has invalid level %d (must be L1/L2/LLC)", i, r.Level)
		}
	}
	return out
}

// OnEvict implements prefetch.Prefetcher.
func (c *Checker) OnEvict(line mem.Addr) { c.inner.OnEvict(line) }

// OnFill implements prefetch.Prefetcher.
func (c *Checker) OnFill(line mem.Addr, level prefetch.Level, useful bool) {
	c.inner.OnFill(line, level, useful)
}

// StorageBits implements prefetch.Prefetcher, asserting the budget is
// positive (unless waived) and stable.
func (c *Checker) StorageBits() int {
	bits := c.inner.StorageBits()
	if bits < 0 || bits == 0 && !c.allowZeroStorage {
		c.report("contract: StorageBits() = %d, want positive (Table III/V accounting)", bits)
	}
	if c.seenStorage && bits != c.storage {
		c.report("contract: StorageBits() unstable: %d then %d", c.storage, bits)
	}
	c.storage, c.seenStorage = bits, true
	return bits
}

// requeueChecker adds the Requeuer capability for prefetchers that
// accept unadmitted requests back.
type requeueChecker struct {
	*Checker
	rq prefetch.Requeuer
}

// Requeue implements prefetch.Requeuer, validating the returned
// request before handing it back.
func (c *requeueChecker) Requeue(r prefetch.Request) {
	if r.Addr.Line() != r.Addr {
		//lint:ignore hotalloc contract-violation report: formats only when the wrapped prefetcher is broken
		c.report("contract: Requeue target %#x is not line-aligned", uint64(r.Addr))
	}
	c.rq.Requeue(r)
}
