package check

import (
	"fmt"
	"strings"
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// recorder collects violations instead of failing a test, so we can
// assert the checker catches deliberately broken stubs.
type recorder struct {
	violations []string
}

func (r *recorder) report(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *recorder) contains(t *testing.T, substr string) {
	t.Helper()
	for _, v := range r.violations {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Errorf("no violation containing %q; got %v", substr, r.violations)
}

// stub is a configurable misbehaving prefetcher.
type stub struct {
	name     string
	names    []string // successive Name() results, if set
	issue    func(max int) []prefetch.Request
	storage  []int // successive StorageBits() results
	storageI int
	nameI    int
}

func (s *stub) Name() string {
	if len(s.names) > 0 {
		n := s.names[min(s.nameI, len(s.names)-1)]
		s.nameI++
		return n
	}
	return s.name
}

func (s *stub) Train(prefetch.Access) {}

func (s *stub) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	if s.issue == nil {
		return dst
	}
	return append(dst, s.issue(max)...)
}

func (s *stub) OnEvict(mem.Addr) {}

func (s *stub) OnFill(mem.Addr, prefetch.Level, bool) {}

func (s *stub) StorageBits() int {
	if len(s.storage) == 0 {
		return 1
	}
	b := s.storage[min(s.storageI, len(s.storage)-1)]
	s.storageI++
	return b
}

func line(n uint64) mem.Addr { return mem.Addr(n * mem.LineBytes) }

func TestCatchesOverBudgetIssue(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "over", issue: func(max int) []prefetch.Request {
		out := make([]prefetch.Request, max+1)
		for i := range out {
			out[i] = prefetch.Request{Addr: line(uint64(i)), Level: prefetch.LevelL1}
		}
		return out
	}}, rec.report)
	p.IssueInto(nil, 4)
	rec.contains(t, "over budget")
}

func TestCatchesIssueOnZeroBudget(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "zero", issue: func(int) []prefetch.Request {
		return []prefetch.Request{{Addr: line(1), Level: prefetch.LevelL1}}
	}}, rec.report)
	p.IssueInto(nil, 0)
	rec.contains(t, "max <= 0")
}

func TestCatchesUnalignedAddress(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "unaligned", issue: func(int) []prefetch.Request {
		return []prefetch.Request{{Addr: line(1) + 8, Level: prefetch.LevelL1}}
	}}, rec.report)
	p.IssueInto(nil, 4)
	rec.contains(t, "not line-aligned")
}

func TestCatchesInvalidLevel(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "levelnone", issue: func(int) []prefetch.Request {
		return []prefetch.Request{{Addr: line(1), Level: prefetch.LevelNone}}
	}}, rec.report)
	p.IssueInto(nil, 4)
	rec.contains(t, "invalid level")
}

// shrinker drops the caller's existing dst entries.
type shrinker struct{ stub }

func (*shrinker) IssueInto(dst []prefetch.Request, _ int) []prefetch.Request { return dst[:0] }

func TestCatchesShrunkDst(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&shrinker{stub{name: "shrink"}}, rec.report)
	p.IssueInto([]prefetch.Request{{Addr: line(1), Level: prefetch.LevelL1}}, 4)
	rec.contains(t, "shrank dst")
}

func TestCatchesEmptyAndUnstableName(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{names: []string{"", "a", "b"}}, rec.report)
	p.Name()
	p.Name()
	p.Name()
	rec.contains(t, "empty string")
	rec.contains(t, "unstable")
}

func TestCatchesZeroAndUnstableStorage(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "storage", storage: []int{0, 5, 7}}, rec.report)
	p.StorageBits()
	p.StorageBits()
	p.StorageBits()
	rec.contains(t, "want positive")
	rec.contains(t, "StorageBits() unstable")
}

func TestAllowZeroStorageWaiver(t *testing.T) {
	rec := &recorder{}
	p := Wrap(prefetch.Nop{}, rec.report, AllowZeroStorage())
	p.StorageBits()
	if len(rec.violations) != 0 {
		t.Errorf("Nop with waiver should be clean, got %v", rec.violations)
	}
}

func TestCleanPrefetcherPasses(t *testing.T) {
	rec := &recorder{}
	p := Wrap(&stub{name: "clean", issue: func(max int) []prefetch.Request {
		n := min(max, 2)
		out := make([]prefetch.Request, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, prefetch.Request{Addr: line(uint64(i)), Level: prefetch.LevelL2})
		}
		return out
	}}, rec.report)
	p.Name()
	p.Train(prefetch.Access{Addr: line(3)})
	p.IssueInto(nil, 8)
	p.IssueInto(nil, 1)
	p.OnEvict(line(3))
	p.OnFill(line(4), prefetch.LevelL2, true)
	p.StorageBits()
	if len(rec.violations) != 0 {
		t.Errorf("clean stub should produce no violations, got %v", rec.violations)
	}
}

// requeueStub exercises the Requeuer passthrough.
type requeueStub struct {
	stub
	requeued []prefetch.Request
}

func (r *requeueStub) Requeue(req prefetch.Request) { r.requeued = append(r.requeued, req) }

func TestRequeuerCapabilityPreserved(t *testing.T) {
	rec := &recorder{}
	rs := &requeueStub{stub: stub{name: "rq"}}
	p := Wrap(rs, rec.report)
	rq, ok := p.(prefetch.Requeuer)
	if !ok {
		t.Fatal("wrapper dropped the Requeuer capability")
	}
	rq.Requeue(prefetch.Request{Addr: line(9), Level: prefetch.LevelL1})
	if len(rs.requeued) != 1 {
		t.Fatalf("requeue not forwarded: %v", rs.requeued)
	}
	rq.Requeue(prefetch.Request{Addr: line(9) + 1, Level: prefetch.LevelL1})
	rec.contains(t, "Requeue target")
}

func TestNonRequeuerGainsNoCapability(t *testing.T) {
	p := Wrap(&stub{name: "plain"}, func(string, ...any) {})
	if _, ok := p.(prefetch.Requeuer); ok {
		t.Fatal("wrapper invented a Requeuer capability the inner prefetcher lacks")
	}
}
