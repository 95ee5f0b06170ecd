package sim

import (
	"testing"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/trace"
)

// The hot path — step -> demandAccess -> Train/IssueInto -> cache
// lookups — must not allocate in steady state. These tests pin that
// invariant: the benchmarks report allocs/op and the AllocsPerRun
// tests fail the build if a per-access allocation sneaks back in.

// stepWorkload primes a core with enough of a trace that every
// structure (caches, pattern tables, prefetch buffer, MSHR files) has
// reached steady state, then returns records to replay.
func stepWorkload(tb testing.TB, pf prefetch.Prefetcher) (*Core, []trace.Record) {
	tb.Helper()
	c := newSingle(quickConfig(), pf).Core(0)
	src := streamTrace(40_000)
	var records []trace.Record
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		records = append(records, r)
	}
	for _, r := range records[:30_000] {
		c.step(r)
	}
	return c, records[30_000:]
}

func TestStepDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"pmp", "nop"} {
		t.Run(name, func(t *testing.T) {
			var pf prefetch.Prefetcher = prefetch.Nop{}
			if name == "pmp" {
				pf = core.New(core.DefaultConfig())
			}
			s, records := stepWorkload(t, pf)
			i := 0
			avg := testing.AllocsPerRun(len(records)-1, func() {
				s.step(records[i])
				i++
			})
			if avg != 0 {
				t.Errorf("steady-state step with %s allocates %.3f allocs/access, want 0", name, avg)
			}
		})
	}
}

func BenchmarkSystemStep(b *testing.B) {
	for _, name := range []string{"pmp", "nop"} {
		b.Run(name, func(b *testing.B) {
			var pf prefetch.Prefetcher = prefetch.Nop{}
			if name == "pmp" {
				pf = core.New(core.DefaultConfig())
			}
			s, records := stepWorkload(b, pf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(records[i%len(records)])
			}
		})
	}
}
