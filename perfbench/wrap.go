package main

import (
	"time"

	"pmp/internal/bench"
	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// sampleEvery is the fixed one-in-N period of the per-call timers. A
// time.Now pair costs about as much as one PMP Train, and a simulated
// access makes four or five wrapped calls, so timing every call would
// add several Trains' worth of host time per access; sampling keeps the
// clock reads to a small share while every count stays exact.
const sampleEvery = 32

// callTimer counts every call of one interface method and times a fixed
// one-in-sampleEvery sample of them.
type callTimer struct {
	calls   uint64
	sampled uint64
	ns      int64
}

// sample counts a call and reports whether it is one of the timed ones.
func (c *callTimer) sample() bool {
	c.calls++
	return c.calls%sampleEvery == 1
}

// done records one timed call that started at t0.
func (c *callTimer) done(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.sampled++
}

// perCallNS estimates the mean time of one call: the mean sampled time
// less the reading an empty timed bracket gives.
func (c callTimer) perCallNS(bracket float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	return max(float64(c.ns)/float64(c.sampled)-bracket, 0)
}

// totalNS scales the per-call estimate to every call.
func (c callTimer) totalNS(bracket float64) float64 {
	return c.perCallNS(bracket) * float64(c.calls)
}

// bracketNS measures what an empty timed bracket reads: the clock cost
// that every sampled call carries and perCallNS subtracts. It returns
// the median of several batch means.
func bracketNS() float64 {
	const batches, calls = 7, 20_000
	means := make([]float64, batches)
	for b := range means {
		var sum time.Duration
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		means[b] = float64(sum) / calls
	}
	return median(means)
}

// tracer collects the per-layer trace of one pass. It is used from one
// goroutine: the traced passes are serial.
type tracer struct {
	train, issue, fill, evict, next callTimer

	requests uint64 // requests returned by IssueInto/Issue
	requeues uint64
	records  uint64 // records Next delivered
	resets   uint64 // Source.Reset calls
	runs     uint64 // sources handed to Machine.Run, which resets each once

	build, run time.Duration // NewMachineAt plus prefetcher construction; Machine.Run

	pmp  core.Stats
	pmps []*core.PMP // inner PMPs of the machine being run
}

// wrap returns pf behind the timing wrapper. The wrapper is a Requeuer
// exactly when pf is one, as check.Wrap does, so the simulator's issue
// policy is unchanged.
func (t *tracer) wrap(pf prefetch.Prefetcher) prefetch.Prefetcher {
	if p, ok := pf.(*core.PMP); ok {
		t.pmps = append(t.pmps, p)
	}
	w := &timedPrefetcher{inner: pf, t: t}
	if rq, ok := pf.(prefetch.Requeuer); ok {
		return &timedRequeuer{timedPrefetcher: w, rq: rq}
	}
	return w
}

// source returns src behind the counting and timing wrapper.
func (t *tracer) source(src trace.Source) trace.Source {
	t.runs++
	return &timedSource{inner: src, t: t}
}

// simulate builds one machine with a fresh instance of each named
// prefetcher per core and runs it on the sources. With a tracer it
// wraps every prefetcher and source and times construction and Run.
func simulate(t *tracer, cfg sim.Config, names []string, srcs []trace.Source, replay bool) []sim.Result {
	if t == nil {
		pfs := make([]prefetch.Prefetcher, len(names))
		for i, n := range names {
			pfs[i] = bench.NewPrefetcher(n)
		}
		return sim.NewMachineAt(cfg, pfs, nil, replay).Run(srcs)
	}
	t0 := time.Now()
	pfs := make([]prefetch.Prefetcher, len(names))
	for i, n := range names {
		pfs[i] = t.wrap(bench.NewPrefetcher(n))
	}
	m := sim.NewMachineAt(cfg, pfs, nil, replay)
	t.build += time.Since(t0)
	wrapped := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		wrapped[i] = t.source(s)
	}
	t1 := time.Now()
	res := m.Run(wrapped)
	t.run += time.Since(t1)
	for _, p := range t.pmps {
		s := p.Stats()
		t.pmp.PatternsMerged += s.PatternsMerged
		t.pmp.Predictions += s.Predictions
		t.pmp.TargetsQueued += s.TargetsQueued
		t.pmp.Halvings += s.Halvings
	}
	t.pmps = t.pmps[:0]
	return res
}

// timedPrefetcher forwards every call to the inner prefetcher, counting
// each and timing a sample.
type timedPrefetcher struct {
	inner prefetch.Prefetcher
	t     *tracer
}

func (w *timedPrefetcher) Name() string     { return w.inner.Name() }
func (w *timedPrefetcher) StorageBits() int { return w.inner.StorageBits() }

func (w *timedPrefetcher) Train(a prefetch.Access) {
	if !w.t.train.sample() {
		w.inner.Train(a)
		return
	}
	t0 := time.Now()
	w.inner.Train(a)
	w.t.train.done(t0)
}

// IssueInto always forwards through prefetch.IssueInto, which falls back
// to Issue for prefetchers without the bulk path, so the requests are
// exactly what the simulator would have drained from the inner one.
func (w *timedPrefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	base := len(dst)
	if w.t.issue.sample() {
		t0 := time.Now()
		dst = prefetch.IssueInto(w.inner, dst, max)
		w.t.issue.done(t0)
	} else {
		dst = prefetch.IssueInto(w.inner, dst, max)
	}
	w.t.requests += uint64(len(dst) - base)
	return dst
}

func (w *timedPrefetcher) Issue(max int) []prefetch.Request {
	return w.IssueInto(nil, max)
}

func (w *timedPrefetcher) OnFill(line mem.Addr, level prefetch.Level, useful bool) {
	if !w.t.fill.sample() {
		w.inner.OnFill(line, level, useful)
		return
	}
	t0 := time.Now()
	w.inner.OnFill(line, level, useful)
	w.t.fill.done(t0)
}

func (w *timedPrefetcher) OnEvict(line mem.Addr) {
	if !w.t.evict.sample() {
		w.inner.OnEvict(line)
		return
	}
	t0 := time.Now()
	w.inner.OnEvict(line)
	w.t.evict.done(t0)
}

// timedRequeuer adds Requeue for inner prefetchers that have it.
type timedRequeuer struct {
	*timedPrefetcher
	rq prefetch.Requeuer
}

func (w *timedRequeuer) Requeue(r prefetch.Request) {
	w.t.requeues++
	w.rq.Requeue(r)
}

// timedSource counts records and resets and times a sample of Next.
type timedSource struct {
	inner trace.Source
	t     *tracer
}

func (s *timedSource) Name() string { return s.inner.Name() }

func (s *timedSource) Reset() {
	s.t.resets++
	s.inner.Reset()
}

func (s *timedSource) Next() (r trace.Record, ok bool) {
	if s.t.next.sample() {
		t0 := time.Now()
		r, ok = s.inner.Next()
		s.t.next.done(t0)
	} else {
		r, ok = s.inner.Next()
	}
	if ok {
		s.t.records++
	}
	return r, ok
}
