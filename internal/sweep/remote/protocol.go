// Package remote serves a sweep.Sweep over HTTP+JSON. The coordinator
// (cmd/pmpsweepd) puts clients' run specs into a store-backed sweep
// that runs no local workers and leases that sweep's queue, oldest job
// first, to remote workers; their reports resolve the jobs. Dedup,
// resume, retry-then-quarantine, the merged store and the manifest are
// the sweep's, so they exist once for local and distributed runs.
// Workers run leased jobs on a local sweep pool and stream records
// back; a worker that dies or stalls lets its lease lapse, and the
// jobs go back on the queue for the survivors (bounded by the sweep's
// MaxAttempts, then quarantined).
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
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sweep"
)

// HTTP endpoints served by the coordinator. All take a JSON request
// body (POST) and return a JSON response; /status also answers GET.
const (
	PathLease   = "/lease"
	PathReport  = "/report"
	PathStatus  = "/status"
	PathSubmit  = "/submit"
	PathResults = "/results"
)

// Worker identifies the worker sending a lease or report. A worker
// picks its ID once per process, its name plus a random suffix, and
// the coordinator learns it on first contact: there is no
// registration, so a restarted coordinator serves the same worker.
type Worker struct {
	ID string `json:"worker_id"`
	// Name is the worker's self-chosen label (host/pid by default),
	// shown in /status.
	Name string `json:"name"`
}

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	Worker
	// Max bounds the batch size; <= 0 means the coordinator default.
	Max int `json:"max"`
}

// LeaseResponse grants a batch (possibly empty when nothing is
// pending).
type LeaseResponse struct {
	Jobs []runspec.RunSpec `json:"jobs,omitempty"`
	// LeaseTTL is how long leased jobs stay with the worker without a
	// report or heartbeat; the worker heartbeats well inside it.
	LeaseTTL time.Duration `json:"lease_ttl_ns"`
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
// extends the deadline of every lease it holds.
type ReportRequest struct {
	Worker
	Records []sweep.Record `json:"records,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Accepted counts records merged into the store by this report.
	Accepted int `json:"accepted"`
	// Stale counts records for jobs that had already resolved (e.g.
	// re-leased after an expiry and finished elsewhere first) or that
	// the coordinator does not know.
	Stale int `json:"stale"`
}

// SubmitRequest is the client path: a batch of bare run specs to
// resolve. The coordinator keys each by its RunSpec.ID, so submission
// is idempotent — known IDs are deduplicated. The reply is an empty
// object; the counts are in /status.
type SubmitRequest struct {
	Jobs []runspec.RunSpec `json:"jobs"`
}

// ResultsRequest polls for resolved jobs by ID.
type ResultsRequest struct {
	IDs []string `json:"ids"`
}

// ResultsResponse returns records for every requested ID that has
// resolved; Pending counts the IDs still queued or leased.
type ResultsResponse struct {
	Records []sweep.Record `json:"records,omitempty"`
	Pending int            `json:"pending"`
	// Unknown lists the requested IDs the coordinator was never
	// submitted, as after a restart; the client submits them again.
	Unknown []string `json:"unknown,omitempty"`
}

// WorkerStatus is one worker's row in /status.
type WorkerStatus struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Leased   int       `json:"leased"`
	LastSeen time.Time `json:"last_seen"`
}

// Status is the coordinator's point-in-time view, served at /status:
// the sweep's snapshot plus the jobs waiting for a lease, the workers
// seen, and whether every submitted job has resolved.
type Status struct {
	sweep.Snapshot
	Pending int `json:"pending"`
	// Workers is sorted by worker ID for deterministic rendering.
	Workers []WorkerStatus `json:"workers,omitempty"`
	Drained bool           `json:"drained"`
}
