package sweep

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
)

// Options configures a Sweep. The zero value runs no job locally: its
// queue waits for Lease, as the distributed coordinator's does. It
// allows two attempts per job and has no timeout, store or progress.
type Options struct {
	// Workers is the size of the local worker pool; 0 runs none, and
	// the queue drains only through Lease. The pool is shared by every
	// experiment submitting to the sweep, so a small sweep's jobs
	// interleave with a large one's instead of queuing behind a
	// per-experiment barrier.
	Workers int
	// MaxAttempts bounds the attempts per job — local runs that panic
	// or time out, or leases that lapse; <= 0 means 2. After the last
	// failed attempt the job is quarantined, not fatal.
	MaxAttempts int
	// JobTimeout bounds one local attempt's wall time; 0 disables. A
	// timed out attempt is retried; the abandoned attempt's goroutine
	// is detached (a trace-driven simulation cannot be preempted).
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

// Sweep is the job table: it deduplicates submitted jobs, runs them on
// a bounded local worker pool or leases them to remote workers,
// retries or quarantines failures, and persists the records. Construct
// with New; submit with Submit; finish with Close.
type Sweep struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	store  *Store

	mu         sync.Mutex
	cond       *sync.Cond
	backlog    []*Ticket // FIFO of unstarted work (unbounded; submission never blocks); resolved tickets are skipped
	tickets    map[string]*Ticket
	running    map[string]string  // job ID -> label, local runs
	leases     map[string]*Ticket // job ID -> ticket leased to a remote worker
	workerJobs map[string]int     // records finished per remote worker
	closing    bool
	started    time.Time

	// counters (guarded by mu)
	submitted   int // unique jobs accepted
	deduped     int // submissions resolved to an existing ticket
	done        int // resolved jobs (ok + cached + quarantined + canceled)
	cached      int // served from the store without running
	completed   int // ran to completion with StatusOK this run
	quarantined int
	canceled    int
	expired     int // leases that lapsed
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
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 5 * time.Second
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Sweep{
		opts:       opts,
		ctx:        sctx,
		cancel:     cancel,
		store:      opts.Store,
		tickets:    map[string]*Ticket{},
		running:    map[string]string{},
		leases:     map[string]*Ticket{},
		workerJobs: map[string]int{},
		started:    time.Now(),
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
// blocks on the pool. A spec the sweep has already seen returns the
// existing ticket (cross-experiment deduplication: F8/F9/F10 all
// needing "pmp on trace X" costs one simulation). A spec whose result
// is in the store resolves immediately without running.
func (s *Sweep) Submit(j Job) *Ticket {
	id := j.Spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tickets[id]; ok {
		s.deduped++
		return t
	}
	t := &Ticket{job: j, id: id, done: make(chan struct{})}
	s.tickets[id] = t
	s.submitted++
	if s.store != nil {
		if rec, ok := s.store.Lookup(id); ok && rec.Status == StatusOK {
			t.rec = rec
			t.cached = true
			s.cached++
			s.done++
			close(t.done)
			return t
		}
	}
	if s.ctx.Err() != nil || s.closing {
		err := context.Cause(s.ctx)
		if err == nil {
			err = errors.New("sweep: closed")
		}
		s.resolveLocked(t, Record{}, err)
		return t
	}
	s.backlog = append(s.backlog, t)
	s.cond.Signal()
	return t
}

// nextLocked pops the oldest unresolved ticket off the queue, or
// returns nil when none is left. A ticket re-queued after a lapsed
// lease can resolve while queued, when its late record arrives; it is
// skipped here. s.mu must be held.
func (s *Sweep) nextLocked() *Ticket {
	for len(s.backlog) > 0 {
		t := s.backlog[0]
		s.backlog = s.backlog[1:]
		if !t.resolved() {
			return t
		}
	}
	return nil
}

// resolveLocked settles t once — canceled when err is non-nil, else
// with rec — and counts the outcome. It reports false when t had
// already resolved. s.mu must be held.
func (s *Sweep) resolveLocked(t *Ticket, rec Record, err error) bool {
	if t.resolved() {
		return false
	}
	switch {
	case err != nil:
		t.err = err
		s.canceled++
	case rec.Status == StatusQuarantined:
		t.rec = rec
		s.quarantined++
	default:
		t.rec = rec
		s.completed++
	}
	s.done++
	close(t.done)
	return true
}

// worker pulls jobs off the shared FIFO until the sweep closes.
func (s *Sweep) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		t := s.nextLocked()
		for t == nil && !s.closing && s.ctx.Err() == nil {
			s.cond.Wait()
			t = s.nextLocked()
		}
		if t == nil {
			s.mu.Unlock()
			return
		}
		if err := s.ctx.Err(); err != nil {
			s.resolveLocked(t, Record{}, err)
			s.mu.Unlock()
			continue
		}
		s.running[t.id] = t.job.Spec.Label()
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
		res, err := s.attempt(t.job)
		if err == nil {
			rec = recordOf(t.id, t.job.Spec, StatusOK, "", attempts)
			rec.setResults(res)
			break
		}
		if errors.Is(err, context.Canceled) && s.ctx.Err() != nil {
			tErr = err
			break
		}
		lastErr = err
	}
	if tErr == nil && rec.Status != StatusOK {
		rec = recordOf(t.id, t.job.Spec, StatusQuarantined, lastErr.Error(), attempts)
	}
	rec.WallNS = time.Since(start).Nanoseconds()
	s.mu.Lock()
	delete(s.running, t.id)
	resolved := s.resolveLocked(t, rec, tErr)
	s.mu.Unlock()
	if resolved && tErr == nil {
		s.persist(rec)
	}
}

// recordOf is the store record of job id, annotated from its spec.
func recordOf(id string, rs runspec.RunSpec, status, errMsg string, attempts int) Record {
	return Record{
		ID:         id,
		Label:      rs.Label(),
		Prefetcher: rs.Name(),
		Trace:      rs.TraceKey(),
		Status:     status,
		Err:        errMsg,
		Attempts:   attempts,
	}
}

// Quarantined is the store record of a job that never produced a
// result, such as a spec a remote worker could not build.
func Quarantined(rs runspec.RunSpec, errMsg string, attempts int) Record {
	return recordOf(rs.ID(), rs, StatusQuarantined, errMsg, attempts)
}

// persist appends records to the store, counting failed appends.
func (s *Sweep) persist(recs ...Record) {
	if s.store == nil {
		return
	}
	for _, rec := range recs {
		if s.store.Append(rec) != nil {
			s.countStoreErr()
		}
	}
}

// attempt runs the job once in its own goroutine so a panic is
// recoverable and a stuck simulation can be abandoned on timeout.
func (s *Sweep) attempt(j Job) ([]sim.Result, error) {
	ctx := s.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	type outcome struct {
		res []sim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{Value: p, Stack: string(debug.Stack())}}
			}
		}()
		ch <- outcome{res: j.Run(ctx)}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		// Timeout or sweep cancellation: abandon the attempt. The
		// goroutine is left to finish (and be discarded) on its own.
		return nil, ctx.Err()
	}
}

// Close drains the queue (or, if the context was canceled, resolves
// the remainder as canceled), stops the workers and progress
// reporting, closes the store, writes the run manifest next to it, and
// returns the manifest. A failure to close the store or write the
// manifest counts in StoreErrors, like a failed append.
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
	if s.store != nil && s.store.Close() != nil {
		s.countStoreErr()
	}
	m := s.manifest()
	if s.store != nil {
		m.Store = s.store.Path()
		if WriteManifest(s.store.ManifestPath(), m) != nil {
			s.countStoreErr()
			m.StoreErrors++
		}
	}
	if s.opts.Progress != nil {
		s.opts.Progress(s.Snapshot(), true)
	}
	return m
}

func (s *Sweep) countStoreErr() {
	s.mu.Lock()
	s.storeErrs++
	s.mu.Unlock()
}
