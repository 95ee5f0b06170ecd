package remote

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pmp/internal/sweep"
)

// CoordinatorOptions configures a Coordinator. The zero value is
// usable apart from Sweep, which is required.
type CoordinatorOptions struct {
	// Sweep is the job table. Submissions join it, leases drain its
	// queue, and reports resolve its jobs; its store, MaxAttempts and
	// manifest give the coordinator resume, retry-then-quarantine and
	// the run record. It should run no local workers, so that every
	// job goes to a remote worker. Required.
	Sweep *sweep.Sweep
	// LeaseTTL is how long a leased batch survives without a report or
	// heartbeat from its worker before being re-queued; <= 0 means 60s.
	LeaseTTL time.Duration
	// LeaseMax bounds one lease's batch size; <= 0 means 16.
	LeaseMax int
	// DrainGrace is how long the coordinator must sit fully resolved
	// with no client contact (submit or results poll) before an empty
	// lease reports Drained. A driving client submits its waves
	// sequentially, so the job space is transiently drained between
	// waves — without the grace an ExitWhenDrained worker exits in
	// that gap and the next wave hangs with no one to run it.
	// <= 0 means 2s.
	DrainGrace time.Duration
	// AuthToken, when non-empty, requires every request to carry a
	// matching `Authorization: Bearer <token>` header (constant-time
	// compare); unauthorized requests get 401. Shared-secret auth for
	// multi-tenant deployments — distribute the token to workers and
	// clients out of band.
	AuthToken string
	// Logf, when non-nil, receives one line per scheduling event.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// Coordinator is the HTTP front of a sweep: it adds clients' run specs
// to the sweep, leases the sweep's queue to the workers that ask, and
// resolves jobs with their reports. It keeps only what HTTP needs
// beyond the sweep: the workers it has seen, lease timing, and the
// drain grace.
type Coordinator struct {
	opts CoordinatorOptions
	sw   *sweep.Sweep

	mu         sync.Mutex
	workers    map[string]*WorkerStatus
	lastClient time.Time // last submit or results poll
}

// NewCoordinator builds a coordinator around opts.Sweep.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 60 * time.Second
	}
	if opts.LeaseMax <= 0 {
		opts.LeaseMax = 16
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 2 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Coordinator{opts: opts, sw: opts.Sweep, workers: map[string]*WorkerStatus{}}
}

// now reads the clock for one request and first expires the leases
// that lapsed by then, so a polling client alone is enough to keep a
// dead worker's jobs moving.
func (c *Coordinator) now() time.Time {
	now := c.opts.Now()
	if n := c.sw.Expire(now); n > 0 {
		c.opts.Logf("expire: %d leases lapsed", n)
	}
	return now
}

// contact is now for a client request: it restarts the drain grace.
func (c *Coordinator) contact() {
	now := c.now()
	c.mu.Lock()
	c.lastClient = now
	c.mu.Unlock()
}

// seen records contact from a worker, learning it on first contact.
func (c *Coordinator) seen(w Worker, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[w.ID]
	if !ok {
		ws = &WorkerStatus{ID: w.ID, Name: w.Name}
		c.workers[w.ID] = ws
		c.opts.Logf("worker %s (%s) joined", w.ID, w.Name)
	}
	ws.LastSeen = now
}

// submit adds valid run specs to the sweep, which keys each by its
// RunSpec.ID, folds duplicates and serves store hits. One invalid spec
// rejects the whole batch.
func (c *Coordinator) submit(req SubmitRequest) error {
	// The coordinator vets that every spec describes a well-formed run
	// (cores, variant configurations, placements within the hierarchy,
	// records, config) without constructing designs or resolving
	// traces — that stays on the workers.
	for i, spec := range req.Jobs {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("invalid job %d (%s): %v", i, spec.Label(), err)
		}
	}
	c.contact()
	for _, spec := range req.Jobs {
		c.sw.Submit(sweep.Job{Spec: spec})
	}
	c.opts.Logf("submit: %d jobs", len(req.Jobs))
	return nil
}

// lease grants the worker up to max of the oldest queued jobs.
func (c *Coordinator) lease(req LeaseRequest) LeaseResponse {
	now := c.now()
	c.seen(req.Worker, now)
	max := req.Max
	if max <= 0 || max > c.opts.LeaseMax {
		max = c.opts.LeaseMax
	}
	resp := LeaseResponse{LeaseTTL: c.opts.LeaseTTL}
	resp.Jobs = c.sw.Lease(req.ID, max, now.Add(c.opts.LeaseTTL))
	if len(resp.Jobs) == 0 {
		resp.Drained = c.quiescent(now)
		return resp
	}
	c.opts.Logf("lease -> %s: %d jobs", req.ID, len(resp.Jobs))
	return resp
}

// report renews the worker's leases (heartbeat) and resolves the jobs
// its records finish.
func (c *Coordinator) report(req ReportRequest) ReportResponse {
	now := c.now()
	c.seen(req.Worker, now)
	c.sw.Renew(req.ID, now.Add(c.opts.LeaseTTL))
	var resp ReportResponse
	for _, rec := range req.Records {
		if c.sw.Finish(req.ID, rec) {
			resp.Accepted++
		} else {
			resp.Stale++
		}
	}
	if len(req.Records) > 0 {
		c.opts.Logf("report <- %s: %d records (%d stale)", req.ID, resp.Accepted, resp.Stale)
	}
	return resp
}

// results serves resolved records for the requested IDs and lists the
// IDs the sweep has never been submitted.
func (c *Coordinator) results(req ResultsRequest) ResultsResponse {
	c.contact()
	var resp ResultsResponse
	for _, id := range req.IDs {
		rec, done, known := c.sw.Lookup(id)
		switch {
		case done:
			resp.Records = append(resp.Records, rec)
		case known:
			resp.Pending++
		default:
			resp.Unknown = append(resp.Unknown, id)
		}
	}
	return resp
}

// quiescent reports whether the run is over from a worker's point of
// view: at least one job was submitted, every job has resolved, and no
// client has submitted or polled for DrainGrace. The grace guards
// against the transient drain between a driving client's sequential
// submission waves; requiring a first submission keeps an
// ExitWhenDrained worker that starts before its client from exiting
// immediately.
func (c *Coordinator) quiescent(now time.Time) bool {
	snap := c.sw.Snapshot()
	c.mu.Lock()
	quiet := now.Sub(c.lastClient) >= c.opts.DrainGrace
	c.mu.Unlock()
	return snap.Submitted > 0 && snap.Done == snap.Submitted && quiet
}

// Status returns the sweep's snapshot with the queue length and the
// workers seen, sorted by ID.
func (c *Coordinator) Status() Status {
	c.now()
	st := Status{Snapshot: c.sw.Snapshot()}
	st.Pending = st.Submitted - st.Done - st.Leased - len(st.Running)
	st.Drained = st.Done == st.Submitted
	held := c.sw.Held()
	c.mu.Lock()
	for _, w := range c.workers {
		ws := *w
		ws.Leased = held[w.ID]
		st.Workers = append(st.Workers, ws)
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	return st
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decode(w, r, &req) {
			return
		}
		if err := c.submit(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(w, struct{}{})
	})
	mux.HandleFunc(PathLease, serve(c.lease))
	mux.HandleFunc(PathReport, serve(c.report))
	mux.HandleFunc(PathResults, serve(c.results))
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		reply(w, c.Status())
	})
	return c.authMiddleware(mux)
}

// serve adapts a request handler to HTTP: decode the JSON body, reply
// with the JSON result.
func serve[Req, Resp any](handle func(Req) Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if decode(w, r, &req) {
			reply(w, handle(req))
		}
	}
}

// authMiddleware enforces the shared-secret bearer token on every
// endpoint when AuthToken is set. The compare is constant-time so the
// token cannot be recovered byte-by-byte from response timing.
func (c *Coordinator) authMiddleware(next http.Handler) http.Handler {
	if c.opts.AuthToken == "" {
		return next
	}
	want := []byte("Bearer " + c.opts.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// decode reads a JSON request body, replying 400 on malformed input.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
