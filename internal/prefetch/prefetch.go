// Package prefetch defines the contract between the simulator's L1D and
// any hardware prefetcher implementation: the training events a
// prefetcher observes, the requests it emits, and the bookkeeping every
// implementation must expose (name, storage budget).
//
// All prefetchers in this repository are single-level L1D-trained
// prefetchers, matching the paper's evaluation setup ("all prefetchers
// are placed at L1D, and no helper prefetchers exist in the other cache
// levels") — but they may direct individual fills to L1D, L2C or LLC.
package prefetch

import "pmp/internal/mem"

// Level identifies the cache level a prefetch should fill into.
type Level uint8

const (
	// LevelNone means "do not prefetch".
	LevelNone Level = iota
	// LevelL1 fills into the L1 data cache (and lower levels, inclusive).
	LevelL1
	// LevelL2 fills into the L2 cache (and LLC).
	LevelL2
	// LevelLLC fills into the last-level cache only.
	LevelLLC
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelL1:
		return "L1D"
	case LevelL2:
		return "L2C"
	case LevelLLC:
		return "LLC"
	default:
		return "invalid"
	}
}

// Downgrade returns the next level further from the core (paper
// arbitration rule 3): L1D -> L2C -> LLC -> LLC.
func (l Level) Downgrade() Level {
	switch l {
	case LevelL1:
		return LevelL2
	case LevelL2, LevelLLC:
		return LevelLLC
	default:
		return l
	}
}

// Access is one demand access observed at the L1D, the training input
// for every prefetcher.
type Access struct {
	PC    uint64   // program counter of the load
	Addr  mem.Addr // byte address accessed
	Cycle uint64   // core cycle of the access
	Hit   bool     // whether the access hit in the L1D
}

// Request is one prefetch the prefetcher wants issued.
type Request struct {
	Addr  mem.Addr // line-aligned target address
	Level Level    // destination cache level
}

// Prefetcher is the interface the simulator drives.
//
// The simulator calls Train on every demand load that reaches the L1D
// (hit or miss), then drains up to the free prefetch-queue capacity via
// IssueInto. OnEvict notifies the prefetcher of L1D line evictions so
// SMS-style accumulation can close regions.
type Prefetcher interface {
	// Name returns a short stable identifier ("pmp", "bingo", ...).
	Name() string

	// Train observes one demand access.
	Train(a Access)

	// IssueInto appends up to max prefetch requests to the
	// caller-owned dst and returns the extended slice; it appends
	// nothing when max <= 0 and never drops dst's existing entries.
	// The simulator calls this after each Train with the currently
	// free PQ capacity and a reused scratch buffer, so a steady-state
	// drain allocates nothing. The prefetcher should return its most
	// valuable requests first (nearest-first for spatial prefetchers).
	IssueInto(dst []Request, max int) []Request

	// OnEvict notifies that the given line-aligned address was evicted
	// from the L1D.
	OnEvict(line mem.Addr)

	// OnFill notifies that a previously issued prefetch for the given
	// line-aligned address completed, and whether it was later used by a
	// demand access before eviction. Feedback-driven prefetchers
	// (Pythia, SPP+PPF) learn from this; others may ignore it.
	OnFill(line mem.Addr, level Level, useful bool)

	// StorageBits returns the hardware storage budget of the prefetcher
	// in bits, for the Table III / Table V overhead comparison.
	StorageBits() int
}

// IssueInto drains up to max requests from p into dst: it is
// p.IssueInto, kept for callers outside this module (perfbench's
// timing wrapper forwards through it).
//
//pmp:hotpath
func IssueInto(p Prefetcher, dst []Request, max int) []Request {
	return p.IssueInto(dst, max)
}

// Requeuer is implemented by prefetchers that can take back a request
// the memory system could not admit (prefetch queue or MSHRs full).
// Requeued requests are retried when slots free up — the paper's
// "prefetching process is suspended ... the process continues"
// semantics (§IV-B).
type Requeuer interface {
	// Requeue returns an unadmitted request to the prefetcher.
	Requeue(r Request)
}

// Nop is a no-op Prefetcher, the non-prefetching baseline.
type Nop struct{}

// Name implements Prefetcher.
func (Nop) Name() string { return "none" }

// Train implements Prefetcher.
func (Nop) Train(Access) {}

// IssueInto implements Prefetcher.
//
//pmp:hotpath
func (Nop) IssueInto(dst []Request, _ int) []Request { return dst }

// OnEvict implements Prefetcher.
func (Nop) OnEvict(mem.Addr) {}

// OnFill implements Prefetcher.
func (Nop) OnFill(mem.Addr, Level, bool) {}

// StorageBits implements Prefetcher.
func (Nop) StorageBits() int { return 0 }
