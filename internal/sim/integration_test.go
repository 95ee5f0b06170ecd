package sim

import (
	"testing"

	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/trace"
)

// recorder wraps Nop and records the feedback the system delivers.
type recorder struct {
	prefetch.Nop
	reqs    []prefetch.Request
	fills   map[mem.Addr]bool // line -> useful
	evicted []mem.Addr
}

func (r *recorder) Issue(max int) []prefetch.Request {
	if max <= 0 || len(r.reqs) == 0 {
		return nil
	}
	n := min(max, len(r.reqs))
	out := r.reqs[:n]
	r.reqs = r.reqs[n:]
	return out
}

func (r *recorder) OnFill(line mem.Addr, _ prefetch.Level, useful bool) {
	if r.fills == nil {
		r.fills = map[mem.Addr]bool{}
	}
	r.fills[line] = useful
}

func (r *recorder) OnEvict(line mem.Addr) { r.evicted = append(r.evicted, line) }

// TestPrefetchFeedbackDelivered checks the OnFill wiring: a prefetched
// line that is later demanded reports useful=true.
func TestPrefetchFeedbackDelivered(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 0
	rec := &recorder{}
	s := newSingle(cfg, rec)

	target := mem.Addr(0x100000)
	rec.reqs = []prefetch.Request{{Addr: target, Level: prefetch.LevelL1}}
	// First access triggers Issue (after Train); second access demands
	// the prefetched line.
	recs := []trace.Record{
		{PC: 1, Addr: 0x200000},
		{PC: 1, Addr: target},
	}
	s.Run([]trace.Source{trace.NewTrace("t", recs)})
	useful, ok := rec.fills[target.Line()]
	if !ok {
		t.Fatal("no feedback for the prefetched line")
	}
	if !useful {
		t.Error("demanded prefetch should be reported useful")
	}
}

// TestInclusionMaintained checks that LLC evictions back-invalidate the
// upper levels: after a run, no L1D-resident line may be missing from
// the LLC.
func TestInclusionMaintained(t *testing.T) {
	cfg := quickConfig()
	// Tiny LLC forces constant back-invalidation.
	cfg.LLC.Sets = 512
	cfg.L2C.Sets = 256
	s := newSingle(cfg, core.New(core.DefaultConfig()))
	src := trace.NewPointerChase("c", 5, 30_000, trace.DefaultPointerChaseParams())
	s.Run([]trace.Source{src})

	// Probe a sample of recently accessed lines: anything in L1D must
	// be in the LLC (inclusive hierarchy).
	src.Reset()
	c := s.Core(0)
	l1d, llc := c.CacheAt(0), c.CacheAt(s.Levels()-1)
	violations := 0
	for i := 0; i < 5000; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		line := r.Addr.Line()
		if l1d.Contains(line) && !llc.Contains(line) {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d lines resident in L1D but not LLC (inclusion broken)", violations)
	}
}

// TestEvictionsReachPrefetcher checks the SMS-closing eviction path.
func TestEvictionsReachPrefetcher(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 0
	rec := &recorder{}
	s := newSingle(cfg, rec)
	// Touch far more lines than L1D holds: evictions must flow.
	var recs []trace.Record
	for i := 0; i < 4096; i++ {
		recs = append(recs, trace.Record{PC: 1, Addr: mem.Addr(i * mem.LineBytes)})
	}
	s.Run([]trace.Source{trace.NewTrace("t", recs)})
	if len(rec.evicted) == 0 {
		t.Error("no evictions delivered to the prefetcher")
	}
}

// TestPMPLimitReducesTraffic checks the PMP-Limit knob end to end.
func TestPMPLimitReducesTraffic(t *testing.T) {
	mk := func(degree int) uint64 {
		cfg := core.DefaultConfig()
		cfg.LowLevelDegree = degree
		src := trace.NewGraph("g", 3, 60_000, trace.DefaultGraphParams())
		res := runSingle(quickConfig(), core.New(cfg), src)
		return res.DRAM.PrefetchRequests
	}
	full, limited := mk(0), mk(1)
	if limited >= full {
		t.Errorf("PMP-Limit traffic (%d) should undercut full PMP (%d)", limited, full)
	}
}

// TestDependentLoadsSerialize checks the DepChain model: a dependent
// pointer chase runs far slower than the same addresses independent.
func TestDependentLoadsSerialize(t *testing.T) {
	mkTrace := func(dep trace.DepKind) trace.Source {
		var recs []trace.Record
		for i := 0; i < 20_000; i++ {
			// Large-stride walk that always misses.
			recs = append(recs, trace.Record{
				PC:   0x42,
				Addr: mem.Addr(uint64(i) * 131 * mem.LineBytes % (1 << 30)),
				Gap:  4,
				Dep:  dep,
			})
		}
		return trace.NewTrace("d", recs)
	}
	cfg := quickConfig()
	cfg.Warmup = 0
	indep := runSingle(cfg, prefetch.Nop{}, mkTrace(trace.DepNone))
	chained := runSingle(cfg, prefetch.Nop{}, mkTrace(trace.DepChain))
	if chained.IPC() > indep.IPC()/3 {
		t.Errorf("dependent chase IPC %.3f should be far below independent %.3f",
			chained.IPC(), indep.IPC())
	}
}

// TestDepPrevWaitsOnPreviousLoad checks the DepPrev model.
func TestDepPrevWaitsOnPreviousLoad(t *testing.T) {
	cfg := quickConfig()
	cfg.Warmup = 0
	// Alternate PCs; DepPrev must serialize across PCs while DepChain
	// would not.
	mk := func(dep trace.DepKind) trace.Source {
		var recs []trace.Record
		for i := 0; i < 10_000; i++ {
			recs = append(recs, trace.Record{
				PC:   uint64(0x10 + i%2*64), // two alternating chains
				Addr: mem.Addr(uint64(i) * 131 * mem.LineBytes % (1 << 30)),
				Gap:  4,
				Dep:  dep,
			})
		}
		return trace.NewTrace("d", recs)
	}
	prev := runSingle(cfg, prefetch.Nop{}, mk(trace.DepPrev))
	chain := runSingle(cfg, prefetch.Nop{}, mk(trace.DepChain))
	// Program-order dependence serializes everything; per-PC chains
	// overlap the two walkers, so DepChain must be faster.
	if chain.IPC() <= prev.IPC()*1.5 {
		t.Errorf("two DepChain walkers (IPC %.3f) should clearly beat DepPrev (%.3f)",
			chain.IPC(), prev.IPC())
	}
}
