package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
)

// WorkerOptions configures a worker loop.
type WorkerOptions struct {
	// Coordinator is the coordinator's address (host:port or URL).
	Coordinator string
	// Name labels the worker in /status and the manifest; defaults to
	// host/pid.
	Name string
	// Parallel is the local pool size; <= 0 means GOMAXPROCS.
	Parallel int
	// Build resolves a job's run spec into the simulation it runs
	// (normally bench.BuildRun, the path a local run takes). A spec
	// Build rejects is reported back as a quarantined record instead of
	// being run.
	Build func(rs runspec.RunSpec) (func(context.Context) []sim.Result, error)
	// Token is the shared-secret bearer token sent with every request
	// when the coordinator requires auth (-auth-token).
	Token string
	// MaxAttempts and JobTimeout configure the local sweep pool (the
	// same retry-then-quarantine semantics as a serial run).
	MaxAttempts int
	JobTimeout  time.Duration
	// Poll is the idle wait between empty leases; <= 0 means 500ms.
	Poll time.Duration
	// ExitWhenDrained makes the worker return once the coordinator
	// reports the run over: every submitted job resolved and no client
	// activity for the coordinator's drain grace, so the worker does
	// not exit in the transient gap between a client's submission
	// waves. Long-lived fleet workers leave it false and keep polling.
	ExitWhenDrained bool
	// Logf, when non-nil, receives one line per worker event.
	Logf func(format string, args ...any)
}

// RunWorker registers with the coordinator and serves leases until the
// context dies (or, with ExitWhenDrained, until the job space is
// drained): lease a batch, run it on a local sweep pool, stream the
// records back as they complete, heartbeat while anything is still
// running. Transport errors back off and retry; a coordinator restart
// (lease/report rejected) triggers re-registration.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.GOMAXPROCS(0)
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	if opts.Build == nil {
		return errors.New("remote: WorkerOptions.Build is required")
	}
	w := &worker{
		opts: opts,
		base: normalizeBase(opts.Coordinator),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	w.pool = sweep.New(ctx, sweep.Options{
		Workers:     opts.Parallel,
		MaxAttempts: opts.MaxAttempts,
		JobTimeout:  opts.JobTimeout,
	})
	defer w.pool.Close()
	return w.run(ctx)
}

// worker is the state of one RunWorker invocation.
type worker struct {
	opts WorkerOptions
	base string
	hc   *http.Client
	pool *sweep.Sweep

	id  string
	ttl time.Duration
}

// register announces the worker, retrying with backoff until the
// context dies.
func (w *worker) register(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		var resp RegisterResponse
		err := postJSON(ctx, w.hc, w.base+PathRegister, w.opts.Token,
			RegisterRequest{Name: w.opts.Name, Parallel: w.opts.Parallel}, &resp)
		if err == nil {
			w.id = resp.WorkerID
			w.ttl = resp.LeaseTTL
			w.opts.Logf("registered as %s (lease TTL %v)", w.id, w.ttl)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.opts.Logf("register: %v (retrying)", err)
		if err := sleepCtx(ctx, backoff(attempt, 200*time.Millisecond, 10*time.Second)); err != nil {
			return err
		}
	}
}

// run is the lease/execute/report loop.
func (w *worker) run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	errs := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var lease LeaseResponse
		err := postJSON(ctx, w.hc, w.base+PathLease, w.opts.Token,
			LeaseRequest{WorkerID: w.id, Max: 2 * w.opts.Parallel}, &lease)
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) {
				// The coordinator no longer knows us (restart): start over.
				w.opts.Logf("lease rejected (%v); re-registering", err)
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			errs++
			w.opts.Logf("lease: %v (retrying)", err)
			if err := sleepCtx(ctx, backoff(errs, 200*time.Millisecond, 10*time.Second)); err != nil {
				return err
			}
			continue
		}
		errs = 0
		if len(lease.Jobs) == 0 {
			if lease.Drained && w.opts.ExitWhenDrained {
				w.opts.Logf("drained; exiting")
				return nil
			}
			if err := sleepCtx(ctx, w.opts.Poll); err != nil {
				return err
			}
			continue
		}
		w.opts.Logf("leased %d jobs (%s)", len(lease.Jobs), lease.LeaseID)
		if err := w.runBatch(ctx, lease); err != nil {
			return err
		}
	}
}

// runBatch executes one leased batch on the local pool, streaming
// records back as jobs complete and heartbeating while any are still
// running.
func (w *worker) runBatch(ctx context.Context, lease LeaseResponse) error {
	recs := make(chan sweep.Record, len(lease.Jobs))
	outstanding := 0
	for _, spec := range lease.Jobs {
		run, err := w.opts.Build(spec.Run)
		if err != nil {
			// Unresolvable on this worker: its quarantine record, not a
			// crash, so the coordinator and store see the failure.
			w.opts.Logf("resolve %s (%s): %v", spec.ID, spec.Label, err)
			recs <- spec.quarantined("resolve: "+err.Error(), 1)
			outstanding++
			continue
		}
		t := w.pool.Submit(spec.Job(run))
		outstanding++
		go func() {
			rec, err := t.Wait()
			if err != nil {
				// Pool canceled: the lease will expire and re-lease
				// elsewhere; nothing to report.
				rec = sweep.Record{}
			}
			recs <- rec
		}()
	}

	heartbeat := w.ttl / 3
	if heartbeat <= 0 {
		heartbeat = 5 * time.Second
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	var buf []sweep.Record
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case rec := <-recs:
			outstanding--
			if rec.ID != "" {
				buf = append(buf, rec)
			}
			// Flush eagerly so the coordinator's store and the lease
			// deadline advance with every completed job.
			if err := w.report(ctx, lease.LeaseID, buf); err != nil {
				return err
			}
			buf = nil
		case <-tick.C:
			if err := w.report(ctx, lease.LeaseID, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// report posts records (empty = heartbeat), retrying transport errors
// until the context dies. A protocol rejection re-registers and drops
// the batch — the lease is gone, and the jobs will be re-leased and
// re-run deterministically.
func (w *worker) report(ctx context.Context, leaseID string, recs []sweep.Record) error {
	for attempt := 0; ; attempt++ {
		var resp ReportResponse
		err := postJSON(ctx, w.hc, w.base+PathReport, w.opts.Token,
			ReportRequest{WorkerID: w.id, LeaseID: leaseID, Records: recs}, &resp)
		if err == nil {
			if resp.Stale > 0 {
				w.opts.Logf("report: %d records stale (re-leased elsewhere)", resp.Stale)
			}
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			w.opts.Logf("report rejected (%v); re-registering", err)
			return w.register(ctx)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.opts.Logf("report: %v (retrying)", err)
		if err := sleepCtx(ctx, backoff(attempt, 200*time.Millisecond, 10*time.Second)); err != nil {
			return err
		}
	}
}
