package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
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
	// Name labels the worker in /status; with a random suffix it forms
	// the worker's ID, which keys the manifest's worker_jobs. Defaults
	// to host/pid.
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

// RunWorker serves leases from the coordinator until the context dies
// (or, with ExitWhenDrained, until the job space is drained): lease a
// batch, run it on a local sweep pool, stream the records back as they
// complete, heartbeat while anything is still running. Every error
// backs off and retries, so the worker keeps serving a coordinator
// that restarts.
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
		self: Worker{ID: fmt.Sprintf("%s-%08x", opts.Name, rand.Uint32()), Name: opts.Name},
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
	self Worker
	base string
	hc   *http.Client
	pool *sweep.Sweep
}

// run is the lease/execute/report loop.
func (w *worker) run(ctx context.Context) error {
	w.opts.Logf("worker %s leasing from %s", w.self.ID, w.base)
	errs := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var lease LeaseResponse
		err := postJSON(ctx, w.hc, w.base+PathLease, w.opts.Token,
			LeaseRequest{Worker: w.self, Max: 2 * w.opts.Parallel}, &lease)
		if err != nil {
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
		w.opts.Logf("leased %d jobs", len(lease.Jobs))
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
	for _, spec := range lease.Jobs {
		run, err := w.opts.Build(spec)
		if err != nil {
			// Unresolvable on this worker: its quarantine record, not a
			// crash, so the coordinator and store see the failure.
			w.opts.Logf("resolve %s: %v", spec.Label(), err)
			recs <- sweep.Quarantined(spec, "resolve: "+err.Error(), 1)
			continue
		}
		t := w.pool.Submit(sweep.Job{Spec: spec, Run: run})
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

	heartbeat := lease.LeaseTTL / 3
	if heartbeat <= 0 {
		heartbeat = 5 * time.Second
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for outstanding := len(lease.Jobs); outstanding > 0; {
		var buf []sweep.Record
		select {
		case <-ctx.Done():
			return ctx.Err()
		case rec := <-recs:
			outstanding--
			if rec.ID != "" {
				buf = append(buf, rec)
			}
		case <-tick.C:
		}
		// Report every record at once, so the coordinator's store and
		// the lease deadline advance with each completed job; a tick
		// reports nothing and is a bare heartbeat.
		if err := w.report(ctx, buf); err != nil {
			return err
		}
	}
	return nil
}

// report posts records (empty = heartbeat), retrying until the context
// dies. The coordinator drops records for jobs that resolved elsewhere
// or that it does not know, as after a restart before the client has
// submitted them again.
func (w *worker) report(ctx context.Context, recs []sweep.Record) error {
	for attempt := 0; ; attempt++ {
		var resp ReportResponse
		err := postJSON(ctx, w.hc, w.base+PathReport, w.opts.Token,
			ReportRequest{Worker: w.self, Records: recs}, &resp)
		if err == nil {
			if resp.Stale > 0 {
				w.opts.Logf("report: %d records stale (resolved elsewhere or unknown)", resp.Stale)
			}
			return nil
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
