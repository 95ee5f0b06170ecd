// Package sweep is the experiment orchestration subsystem: it turns
// the repository's evaluation — many independent (prefetcher, trace,
// config) simulations spread across experiment tables — from a serial
// loop into a scheduling problem. A Sweep is the one job table: it
// runs jobs on a bounded local worker pool shared by every experiment
// in the process, or leases them to remote workers (the pmpsweepd
// coordinator in internal/sweep/remote), deduplicates identical jobs
// by deterministic ID, survives per-job panics, timeouts and lapsed
// leases by quarantining the failing job, and (optionally) persists
// every completed result to an append-only JSONL store so an
// interrupted run can be resumed without redoing finished work.
//
// See docs/sweep.md for the job model, store format, resume semantics
// and failure handling.
package sweep

import (
	"context"
	"fmt"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
)

// Job is one unit of work: a single deterministic simulation, given by
// its run spec and the closure that runs it. The sweep keys the job by
// Spec.ID, so two jobs with the same spec are interchangeable — the
// sweep runs whichever is submitted first and hands every later
// submitter the same ticket — and it takes the progress label and the
// store record's annotations from the spec too.
type Job struct {
	Spec runspec.RunSpec
	// Run executes the simulation and returns one result per core. It
	// must be deterministic (the same results for the same spec
	// regardless of scheduling) and safe to call from any goroutine.
	// The context is canceled when the sweep is interrupted or the
	// per-job timeout fires; Run may ignore it — the worker stops
	// waiting regardless — but a cooperative Run can use it to stop
	// early. A job leased to remote workers has no Run.
	Run func(ctx context.Context) []sim.Result
}

// PanicError wraps a panic recovered from a job attempt.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Interrupted is the panic value bench-layer helpers use to unwind an
// experiment whose sweep was canceled (SIGINT); cmd surfaces recover
// it at the top of each experiment goroutine.
type Interrupted struct{ Err error }

func (i Interrupted) Error() string { return fmt.Sprintf("sweep interrupted: %v", i.Err) }

// Ticket is the future for one submitted job. Tickets are shared:
// submitting an ID already known to the sweep returns the original
// ticket.
type Ticket struct {
	job    Job
	id     string
	done   chan struct{}
	rec    Record
	err    error
	cached bool

	// Lease state, guarded by the sweep's mutex: the worker holding the
	// job, until when, and the attempts its leases have used.
	worker   string
	deadline time.Time
	attempts int
}

// Wait blocks until the job resolves. It returns the store record
// (status StatusOK or StatusQuarantined — a quarantined job is a
// result, not an error, so one poisoned job never aborts a sweep) and
// a non-nil error only when the sweep was canceled before the job
// could run.
func (t *Ticket) Wait() (Record, error) {
	<-t.done
	return t.rec, t.err
}

// Done returns a channel closed when the job resolves.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Cached reports whether the result was served from the results store
// (resume) rather than executed by this run.
func (t *Ticket) Cached() bool {
	<-t.done
	return t.cached
}

// resolved reports whether the ticket has resolved, without blocking.
func (t *Ticket) resolved() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}
