package sweep

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pmp/internal/sim"
)

// Options configures a Sweep. The zero value is usable: GOMAXPROCS
// workers, two attempts per job, no timeout, no store, no progress.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means runtime.GOMAXPROCS(0).
	// The pool is shared by every experiment submitting to the sweep,
	// so a small sweep's jobs interleave with a large one's instead of
	// queuing behind a per-experiment barrier.
	Workers int
	// MaxAttempts bounds retries for a job that panics or times out;
	// <= 0 means 2. After the last failed attempt the job is
	// quarantined, not fatal.
	MaxAttempts int
	// JobTimeout bounds one attempt's wall time; 0 disables. A timed
	// out attempt is retried; the abandoned attempt's goroutine is
	// detached (a trace-driven simulation cannot be preempted).
	JobTimeout time.Duration
	// Store, when non-nil, receives one record per completed job and
	// serves already-completed jobs back to Submit (resume).
	Store *Store
	// Progress, when non-nil, receives periodic one-line status
	// reports (done/total, throughput, ETA, running job labels).
	Progress ProgressFunc
	// ProgressEvery is the reporting interval; <= 0 means 5s.
	ProgressEvery time.Duration
}

// Sweep schedules jobs onto a bounded shared worker pool. Construct
// with New; submit with Submit; finish with Close.
type Sweep struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	store  *Store

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Ticket // FIFO of unstarted work (unbounded; submission never blocks)
	tickets map[string]*Ticket
	running map[string]string // job ID -> label
	closing bool
	started time.Time

	// counters (guarded by mu)
	submitted   int // unique jobs accepted
	deduped     int // submissions resolved to an existing ticket
	done        int // resolved jobs (ok + cached + quarantined)
	cached      int // served from the store without running
	completed   int // ran to completion with StatusOK this run
	quarantined int
	canceled    int
	storeErrs   int

	wg           sync.WaitGroup // workers
	progressStop chan struct{}
	progressWG   sync.WaitGroup
}

// New builds a Sweep and starts its workers. The context governs the
// whole run: canceling it (e.g. on SIGINT) stops dispatching, resolves
// pending tickets with the cancellation error, and lets Close return
// promptly after flushing the store.
func New(ctx context.Context, opts Options) *Sweep {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 5 * time.Second
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Sweep{
		opts:    opts,
		ctx:     sctx,
		cancel:  cancel,
		store:   opts.Store,
		tickets: map[string]*Ticket{},
		running: map[string]string{},
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Wake blocked workers when the context dies so they can drain
	// the queue as canceled.
	go func() {
		<-sctx.Done()
		s.cond.Broadcast()
	}()
	if opts.Progress != nil {
		s.progressStop = make(chan struct{})
		s.progressWG.Add(1)
		go s.progressLoop()
	}
	return s
}

// Submit enqueues a job and returns its ticket. Submission never
// blocks on the pool. An ID the sweep has already seen returns the
// existing ticket (cross-experiment deduplication: F8/F9/F10 all
// needing "pmp on trace X" costs one simulation). An ID whose result
// is in the store resolves immediately without running.
func (s *Sweep) Submit(j Job) *Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tickets[j.ID]; ok {
		s.deduped++
		return t
	}
	t := &Ticket{job: j, done: make(chan struct{})}
	s.tickets[j.ID] = t
	s.submitted++
	if s.store != nil {
		if rec, ok := s.store.Lookup(j.ID); ok && rec.Status == StatusOK {
			t.rec = rec
			t.cached = true
			s.cached++
			s.done++
			close(t.done)
			return t
		}
	}
	if s.ctx.Err() != nil || s.closing {
		t.err = context.Cause(s.ctx)
		if t.err == nil {
			t.err = errors.New("sweep: closed")
		}
		s.canceled++
		s.done++
		close(t.done)
		return t
	}
	s.backlog = append(s.backlog, t)
	s.cond.Signal()
	return t
}

// worker pulls jobs off the shared FIFO until the sweep closes.
func (s *Sweep) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.backlog) == 0 && !s.closing && s.ctx.Err() == nil {
			s.cond.Wait()
		}
		if len(s.backlog) == 0 {
			s.mu.Unlock()
			return
		}
		t := s.backlog[0]
		s.backlog = s.backlog[1:]
		if s.ctx.Err() != nil {
			t.err = s.ctx.Err()
			s.canceled++
			s.done++
			close(t.done)
			s.mu.Unlock()
			continue
		}
		s.running[t.job.ID] = t.job.Label
		s.mu.Unlock()

		s.runJob(t)
	}
}

// runJob executes one job with bounded retries, quarantining it if
// every attempt panics or times out. The failing job is recorded in
// the store; the rest of the sweep is unaffected.
func (s *Sweep) runJob(t *Ticket) {
	start := time.Now()
	var rec Record
	var tErr error
	var lastErr error
	attempts := 0
	for attempts < s.opts.MaxAttempts {
		attempts++
		res, multi, err := s.attempt(t.job)
		if err == nil {
			rec = s.record(t.job, StatusOK, "", attempts, start)
			rec.Result = res
			rec.Results = multi
			break
		}
		if errors.Is(err, context.Canceled) && s.ctx.Err() != nil {
			tErr = err
			break
		}
		lastErr = err
	}
	persist := false
	s.mu.Lock()
	delete(s.running, t.job.ID)
	switch {
	case tErr != nil:
		t.err = tErr
		s.canceled++
	case rec.Status == StatusOK:
		t.rec = rec
		s.completed++
		persist = true
	default:
		rec = s.record(t.job, StatusQuarantined, lastErr.Error(), attempts, start)
		t.rec = rec
		s.quarantined++
		persist = true
	}
	s.done++
	close(t.done)
	s.mu.Unlock()

	if persist && s.store != nil {
		if err := s.store.Append(t.rec); err != nil {
			s.mu.Lock()
			s.storeErrs++
			s.mu.Unlock()
		}
	}
}

func (s *Sweep) record(j Job, status, errMsg string, attempts int, start time.Time) Record {
	return Record{
		ID:         j.ID,
		Label:      j.Label,
		Prefetcher: j.Prefetcher,
		Trace:      j.Trace,
		Status:     status,
		Err:        errMsg,
		Attempts:   attempts,
		WallNS:     time.Since(start).Nanoseconds(),
	}
}

// attempt runs the job once in its own goroutine so a panic is
// recoverable and a stuck simulation can be abandoned on timeout.
// Multi-core jobs (RunMulti) return their per-core results in the
// second value; single-core jobs in the first.
func (s *Sweep) attempt(j Job) (sim.Result, []sim.Result, error) {
	ctx := s.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	type outcome struct {
		res   sim.Result
		multi []sim.Result
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{Value: p, Stack: string(debug.Stack())}}
			}
		}()
		if j.RunMulti != nil {
			ch <- outcome{multi: j.RunMulti(ctx)}
			return
		}
		ch <- outcome{res: j.Run(ctx)}
	}()
	select {
	case o := <-ch:
		return o.res, o.multi, o.err
	case <-ctx.Done():
		// Timeout or sweep cancellation: abandon the attempt. The
		// goroutine is left to finish (and be discarded) on its own.
		return sim.Result{}, nil, ctx.Err()
	}
}

// Close drains the queue (or, if the context was canceled, resolves
// the remainder as canceled), stops the workers and progress
// reporting, writes the run manifest next to the store, closes the
// store, and returns the manifest.
func (s *Sweep) Close() Manifest {
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.cancel()
	if s.progressStop != nil {
		close(s.progressStop)
		s.progressWG.Wait()
	}
	m := s.manifest()
	if s.store != nil {
		m.Store = s.store.Path()
		_ = WriteManifest(s.store.ManifestPath(), m)
		_ = s.store.Close()
	}
	if s.opts.Progress != nil {
		s.opts.Progress(s.Snapshot(), true)
	}
	return m
}
