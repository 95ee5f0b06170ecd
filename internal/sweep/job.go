// Package sweep is the experiment orchestration subsystem: it turns
// the repository's evaluation — many independent (prefetcher, trace,
// config) simulations spread across experiment tables — from a serial
// loop into a scheduling problem. A Sweep owns a bounded worker pool
// shared by every experiment in the process, deduplicates identical
// jobs by deterministic ID, survives per-job panics and timeouts by
// quarantining the failing job, and (optionally) persists every
// completed result to an append-only JSONL store so an interrupted
// run can be resumed without redoing finished work.
//
// See docs/sweep.md for the job model, store format, resume semantics
// and failure handling.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pmp/internal/sim"
)

// Job is one unit of work: a single deterministic simulation. Two
// jobs with the same ID are assumed interchangeable — the Sweep runs
// whichever is submitted first and hands every later submitter the
// same ticket — so the ID must capture everything the simulation
// depends on (see JobID).
type Job struct {
	// ID is the deterministic identity of the work (JobID). Required.
	ID string
	// Label is the human-readable form shown by progress reporting,
	// e.g. "pmp/spec06.stream-0".
	Label string
	// Prefetcher and Trace annotate the store record.
	Prefetcher string
	Trace      string
	// Run executes the simulation and returns one result per core. It
	// must be deterministic (the same results for the same Job.ID
	// regardless of scheduling) and safe to call from any goroutine.
	// The context is canceled when the sweep is interrupted or the
	// per-job timeout fires; Run may ignore it — the worker stops
	// waiting regardless — but a cooperative Run can use it to stop
	// early.
	Run func(ctx context.Context) []sim.Result
}

// JobID hashes the coordinates of one simulation into a deterministic
// identity: prefetcher name, trace spec name, per-trace record count
// (the scale), and the canonical sim.Config fingerprint (which covers
// warm-up and measure windows along with the whole system geometry).
// Any change to any coordinate yields a new ID, so a results store
// never serves stale results to a reconfigured run.
func JobID(prefetcher, trace string, records int, cfgFingerprint string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v1|pf=%s|trace=%s|records=%d|cfg=%s",
		prefetcher, trace, records, cfgFingerprint)))
	return hex.EncodeToString(h[:8])
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
	done   chan struct{}
	rec    Record
	err    error
	cached bool
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
