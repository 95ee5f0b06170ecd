// Package remote turns internal/sweep into a network service: a
// coordinator (cmd/pmpsweepd) owns the job space and the merged
// results store, hash-shards pending jobs by job ID across registered
// workers, leases batches over HTTP+JSON, and merges reported records
// into the store. Workers run leased jobs on a local sweep pool and
// stream records back; a worker that dies or stalls lets its lease
// expire, and the coordinator re-leases the jobs to the survivors
// (bounded by MaxAttempts, then the existing quarantine path).
//
// Because every job is deterministic and the store keeps the last
// record per ID, the merged store of an N-worker distributed run is
// record-for-record identical — after last-record-per-ID resolution
// and modulo timing fields — to a serial run of the same job set.
// scripts/distributed_smoke.sh enforces that invariant in CI with a
// worker SIGKILLed mid-sweep.
//
// See docs/sweep.md ("Distributed mode") for protocol and failure
// model details.
package remote

import (
	"context"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
)

// HTTP endpoints served by the coordinator. All take a JSON request
// body (POST) and return a JSON response; /status also answers GET.
const (
	PathRegister = "/register"
	PathLease    = "/lease"
	PathReport   = "/report"
	PathStatus   = "/status"
	PathSubmit   = "/submit"
	PathResults  = "/results"
)

// JobSpec is the wire form of one simulation job: a declarative
// runspec.RunSpec (per-core traces and variants, per-level placements,
// record count, full sim.Config) plus identity and annotations —
// everything a worker needs to reconstruct the run without sharing
// memory with the submitter. bench.BuildRun materializes Run on the
// worker exactly as it does for a local run.
type JobSpec struct {
	// ID is the deterministic sweep job identity (sweep.JobID). The
	// coordinator deduplicates and shards by it.
	ID string `json:"id"`
	// Label is the human-readable form used in progress and logs.
	Label string `json:"label"`
	// Prefetcher and Trace annotate store records (and quarantine
	// records for jobs that never built); the run itself is described
	// by Run. Prefetcher is the variant name, Trace the RunSpec's
	// trace key.
	Prefetcher string `json:"prefetcher"`
	Trace      string `json:"trace"`
	// Run is the declarative description of the simulation. The
	// coordinator validates it structurally at submit; the worker
	// builds and executes it.
	Run runspec.RunSpec `json:"run"`
}

// Job pairs the spec's identity with run, the built simulation, as the
// sweep job a local pool or a worker's pool executes.
func (s JobSpec) Job(run func(context.Context) []sim.Result) sweep.Job {
	return sweep.Job{ID: s.ID, Label: s.Label, Prefetcher: s.Prefetcher, Trace: s.Trace, Run: run}
}

// quarantined is the store record of a job that never produced a
// result: a worker could not build it, or its leases kept expiring.
func (s JobSpec) quarantined(err string, attempts int) sweep.Record {
	return sweep.Record{
		ID: s.ID, Label: s.Label, Prefetcher: s.Prefetcher, Trace: s.Trace,
		Status: sweep.StatusQuarantined, Err: err, Attempts: attempts,
	}
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is the worker's self-chosen label (host/pid by default).
	Name string `json:"name"`
	// Parallel is the worker's local pool size, reported for /status.
	Parallel int `json:"parallel"`
}

// RegisterResponse assigns the worker its identity and lease terms.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity for this
	// registration; every later request carries it.
	WorkerID string `json:"worker_id"`
	// LeaseTTL is how long a leased batch stays owned without a report
	// or heartbeat before it is re-leased to another worker.
	LeaseTTL time.Duration `json:"lease_ttl_ns"`
}

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// Max bounds the batch size; <= 0 means the coordinator default.
	Max int `json:"max"`
}

// LeaseResponse grants a batch (possibly empty when nothing is
// pending).
type LeaseResponse struct {
	// LeaseID identifies the batch in reports; empty when no jobs were
	// granted.
	LeaseID string    `json:"lease_id,omitempty"`
	Jobs    []JobSpec `json:"jobs,omitempty"`
	// Drained is true when the run is over: at least one job was
	// submitted, every job has resolved, and no client has submitted
	// or polled for the coordinator's drain grace. An idle worker may
	// use it to decide to exit; it is deliberately NOT the
	// instantaneous Status.Drained, which is transiently true between
	// a client's sequential submission waves.
	Drained bool `json:"drained"`
}

// ReportRequest streams completed records back and doubles as the
// lease heartbeat: any report (even an empty one) from a worker
// extends the deadline of its outstanding leases.
type ReportRequest struct {
	WorkerID string         `json:"worker_id"`
	LeaseID  string         `json:"lease_id"`
	Records  []sweep.Record `json:"records,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Accepted counts records merged into the store by this report.
	Accepted int `json:"accepted"`
	// Stale counts records for jobs that had already resolved (e.g.
	// re-leased after an expiry and finished elsewhere first).
	Stale int `json:"stale"`
}

// SubmitRequest is the client path: a batch of job specs to resolve.
// Submission is idempotent — known IDs are deduplicated.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse summarizes a submission.
type SubmitResponse struct {
	Accepted int `json:"accepted"` // newly queued
	Deduped  int `json:"deduped"`  // already known to this run
	Cached   int `json:"cached"`   // resolved from the store (resume)
}

// ResultsRequest polls for resolved jobs by ID.
type ResultsRequest struct {
	IDs []string `json:"ids"`
}

// ResultsResponse returns records for every requested ID that has
// resolved; Pending counts the rest.
type ResultsResponse struct {
	Records []sweep.Record `json:"records,omitempty"`
	Pending int            `json:"pending"`
}

// WorkerStatus is one worker's row in /status.
type WorkerStatus struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Parallel int       `json:"parallel"`
	Jobs     int       `json:"jobs"` // records merged from this worker
	Leased   int       `json:"leased"`
	LastSeen time.Time `json:"last_seen"`
}

// Status is the coordinator's point-in-time view, served at /status.
type Status struct {
	Submitted   int `json:"submitted"`
	Deduped     int `json:"deduped"`
	Cached      int `json:"cached"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Done        int `json:"done"`
	Completed   int `json:"completed"`
	Quarantined int `json:"quarantined"`
	// Expired counts leases that timed out and were re-queued (worker
	// death or stall).
	Expired int `json:"expired"`
	// Workers is sorted by worker ID for deterministic rendering.
	Workers []WorkerStatus `json:"workers,omitempty"`
	Drained bool           `json:"drained"`
}
