package remote

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"pmp/internal/sweep"
)

// CoordinatorOptions configures a Coordinator. The zero value is
// usable apart from Store, which is required.
type CoordinatorOptions struct {
	// Store receives one record per resolved job and serves
	// already-completed jobs back to Submit (resume across coordinator
	// restarts). Required.
	Store *sweep.Store
	// LeaseTTL is how long a leased batch survives without a report or
	// heartbeat from its worker before being re-queued; <= 0 means 60s.
	LeaseTTL time.Duration
	// LeaseMax bounds one lease's batch size; <= 0 means 16.
	LeaseMax int
	// MaxAttempts bounds lease attempts per job: after MaxAttempts
	// expired leases the job is quarantined, mirroring the local
	// sweep's retry-then-quarantine path. <= 0 means 2.
	MaxAttempts int
	// DrainGrace is how long the coordinator must sit fully resolved
	// with no client contact (submit or results poll) before an empty
	// lease reports Drained. A driving client submits its waves
	// sequentially, so the job space is transiently drained between
	// waves — without the grace an ExitWhenDrained worker exits in
	// that gap and the next wave hangs with no one to run it.
	// <= 0 means 2s.
	DrainGrace time.Duration
	// Addr is the advertised coordinator address, recorded in the run
	// manifest for auditability.
	Addr string
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

// job lifecycle states.
const (
	jobPending = iota
	jobLeased
	jobDone
)

// coordJob is the coordinator's bookkeeping for one job.
type coordJob struct {
	spec     JobSpec
	state    int
	workerID string
	leaseID  string
	deadline time.Time
	attempts int // lease attempts consumed (expiries included)
	rec      sweep.Record
}

// workerState is the coordinator's bookkeeping for one registration.
type workerState struct {
	id       string
	name     string
	parallel int
	index    int // shard index, fixed at registration
	jobs     int // records merged from this worker
	lastSeen time.Time
}

// Coordinator owns the job space of a distributed sweep: it
// deduplicates submissions by job ID, shards pending jobs across
// registered workers (hash of the job ID, with stealing so an idle
// worker is never starved by a dead shard), tracks leases, merges
// reported records into the store, and re-leases expired batches.
type Coordinator struct {
	opts CoordinatorOptions

	mu      sync.Mutex
	jobs    map[string]*coordJob
	backlog []string // pending job IDs, FIFO; entries are skipped if no longer pending
	workers map[string]*workerState

	workerSeq  int
	leaseSeq   int
	started    time.Time
	lastClient time.Time // last submit or results poll

	// counters (guarded by mu)
	deduped     int
	cached      int
	completed   int
	quarantined int
	expired     int
	stale       int
	storeErrs   int
}

// NewCoordinator builds a coordinator around the merged store.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 60 * time.Second
	}
	if opts.LeaseMax <= 0 {
		opts.LeaseMax = 16
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
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
	c := &Coordinator{
		opts:    opts,
		jobs:    map[string]*coordJob{},
		workers: map[string]*workerState{},
	}
	c.started = opts.Now()
	return c
}

// shardOf maps a job ID onto one of n shards.
func shardOf(id string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// register adds a worker and assigns its shard index.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workerSeq++
	w := &workerState{
		id:       fmt.Sprintf("w%d", c.workerSeq),
		name:     req.Name,
		parallel: req.Parallel,
		index:    c.workerSeq - 1,
		lastSeen: c.opts.Now(),
	}
	c.workers[w.id] = w
	c.opts.Logf("register: %s (%s, parallel %d)", w.id, w.name, req.Parallel)
	return RegisterResponse{WorkerID: w.id, LeaseTTL: c.opts.LeaseTTL}
}

// submit queues new jobs, folding duplicates and serving store hits.
func (c *Coordinator) submit(req SubmitRequest) SubmitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	c.lastClient = c.opts.Now()
	var resp SubmitResponse
	for _, spec := range req.Jobs {
		if spec.ID == "" {
			continue
		}
		if _, ok := c.jobs[spec.ID]; ok {
			c.deduped++
			resp.Deduped++
			continue
		}
		j := &coordJob{spec: spec}
		if rec, ok := c.opts.Store.Lookup(spec.ID); ok && rec.Status == sweep.StatusOK {
			j.state = jobDone
			j.rec = rec
			c.cached++
			resp.Cached++
			c.jobs[spec.ID] = j
			continue
		}
		j.state = jobPending
		c.jobs[spec.ID] = j
		c.backlog = append(c.backlog, spec.ID)
		resp.Accepted++
	}
	if resp.Accepted > 0 {
		c.opts.Logf("submit: %d queued, %d deduped, %d cached", resp.Accepted, resp.Deduped, resp.Cached)
	}
	return resp
}

// lease grants up to max pending jobs to the worker, preferring jobs
// whose ID hashes to the worker's shard and stealing from other shards
// when its own is empty, so a dead worker's backlog drains through the
// survivors.
func (c *Coordinator) lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return LeaseResponse{}, fmt.Errorf("unknown worker %q", req.WorkerID)
	}
	now := c.opts.Now()
	w.lastSeen = now
	max := req.Max
	if max <= 0 || max > c.opts.LeaseMax {
		max = c.opts.LeaseMax
	}
	// Compact the queue to live pending entries while splitting it into
	// this worker's shard and the rest. A job can appear twice — its
	// original entry is left behind at lease time and expiry re-queues
	// it — so duplicates are folded here too.
	var mine, theirs []string
	live := c.backlog[:0]
	seen := make(map[string]bool, len(c.backlog))
	n := len(c.workers)
	for _, id := range c.backlog {
		j := c.jobs[id]
		if j == nil || j.state != jobPending || seen[id] {
			continue // resolved, leased since queuing, or duplicate
		}
		seen[id] = true
		live = append(live, id)
		if shardOf(id, n) == w.index%n {
			mine = append(mine, id)
		} else {
			theirs = append(theirs, id)
		}
	}
	c.backlog = live
	picked := mine
	if len(picked) > max {
		picked = picked[:max]
	}
	if len(picked) < max { // shard drained: steal
		picked = append(picked, theirs[:min(max-len(picked), len(theirs))]...)
	}
	if len(picked) == 0 {
		return LeaseResponse{Drained: c.quiescentLocked(now)}, nil
	}
	c.leaseSeq++
	leaseID := fmt.Sprintf("l%d", c.leaseSeq)
	resp := LeaseResponse{LeaseID: leaseID}
	for _, id := range picked {
		j := c.jobs[id]
		j.state = jobLeased
		j.workerID = w.id
		j.leaseID = leaseID
		j.deadline = now.Add(c.opts.LeaseTTL)
		j.attempts++
		resp.Jobs = append(resp.Jobs, j.spec)
	}
	c.opts.Logf("lease %s -> %s: %d jobs", leaseID, w.id, len(resp.Jobs))
	return resp, nil
}

// report merges completed records into the store and extends the
// reporting worker's outstanding leases (heartbeat).
func (c *Coordinator) report(req ReportRequest) (ReportResponse, error) {
	c.mu.Lock()
	c.expireLocked()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return ReportResponse{}, fmt.Errorf("unknown worker %q", req.WorkerID)
	}
	now := c.opts.Now()
	w.lastSeen = now
	// Heartbeat: everything this worker still holds gets a fresh
	// deadline, so a slow job survives as long as its worker does.
	for _, j := range c.jobs {
		if j.state == jobLeased && j.workerID == w.id {
			j.deadline = now.Add(c.opts.LeaseTTL)
		}
	}
	var resp ReportResponse
	var persist []sweep.Record
	for _, rec := range req.Records {
		j, ok := c.jobs[rec.ID]
		if !ok || j.state == jobDone {
			// Unknown, or already resolved by another worker after this
			// worker's lease expired. Results are deterministic, so the
			// extra copy is dropped rather than re-stored.
			c.stale++
			resp.Stale++
			continue
		}
		j.state = jobDone
		j.rec = rec
		switch rec.Status {
		case sweep.StatusQuarantined:
			c.quarantined++
		default:
			c.completed++
		}
		w.jobs++
		resp.Accepted++
		persist = append(persist, rec)
	}
	c.mu.Unlock()

	for _, rec := range persist {
		if err := c.opts.Store.Append(rec); err != nil {
			c.mu.Lock()
			c.storeErrs++
			c.mu.Unlock()
			c.opts.Logf("store append %s: %v", rec.ID, err)
		}
	}
	if resp.Accepted > 0 {
		c.opts.Logf("report %s <- %s: %d records (%d stale)", req.LeaseID, w.id, resp.Accepted, resp.Stale)
	}
	return resp, nil
}

// results serves resolved records for the requested IDs.
func (c *Coordinator) results(req ResultsRequest) ResultsResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	c.lastClient = c.opts.Now()
	var resp ResultsResponse
	for _, id := range req.IDs {
		if j, ok := c.jobs[id]; ok && j.state == jobDone {
			resp.Records = append(resp.Records, j.rec)
		} else {
			resp.Pending++
		}
	}
	return resp
}

// expireLocked re-queues jobs whose lease deadline has passed; a job
// that has exhausted MaxAttempts lease attempts is quarantined with a
// store record, mirroring the local sweep's retry-then-quarantine
// path. Expiry runs lazily at every coordinator entry point, so a
// polling client is enough to keep a dead worker's backlog moving.
func (c *Coordinator) expireLocked() {
	now := c.opts.Now()
	var lapsed []string
	for id, j := range c.jobs {
		if j.state == jobLeased && !now.Before(j.deadline) {
			lapsed = append(lapsed, id)
		}
	}
	// Sorted, so simultaneous expiries re-queue and hit the store in a
	// deterministic order.
	sort.Strings(lapsed)
	for _, id := range lapsed {
		j := c.jobs[id]
		c.expired++
		if j.attempts < c.opts.MaxAttempts {
			j.state = jobPending
			c.backlog = append(c.backlog, id)
			c.opts.Logf("expire: %s (%s) re-queued (lease %s, worker %s)",
				id, j.spec.Label, j.leaseID, j.workerID)
			continue
		}
		j.state = jobDone
		j.rec = j.spec.quarantined(fmt.Sprintf("lease expired %d times (last worker %s)",
			j.attempts, j.workerID), j.attempts)
		c.quarantined++
		c.opts.Logf("expire: %s (%s) quarantined after %d leases", id, j.spec.Label, j.attempts)
		if err := c.opts.Store.Append(j.rec); err != nil {
			c.storeErrs++
		}
	}
}

// drainedLocked reports whether every submitted job has resolved.
func (c *Coordinator) drainedLocked() bool {
	for _, j := range c.jobs {
		if j.state != jobDone {
			return false
		}
	}
	return true
}

// quiescentLocked reports whether the run is over from a worker's
// point of view: at least one job was submitted, every job has
// resolved, and no client has submitted or polled for DrainGrace.
// The grace guards against the transient drain between a driving
// client's sequential submission waves; requiring a first submission
// keeps an ExitWhenDrained worker that starts before its client from
// exiting immediately.
func (c *Coordinator) quiescentLocked(now time.Time) bool {
	return len(c.jobs) > 0 && c.drainedLocked() &&
		now.Sub(c.lastClient) >= c.opts.DrainGrace
}

// Status returns the coordinator's current counters, workers sorted by
// ID.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	st := Status{
		Deduped:     c.deduped,
		Cached:      c.cached,
		Completed:   c.completed,
		Quarantined: c.quarantined,
		Expired:     c.expired,
		Submitted:   len(c.jobs),
	}
	for _, j := range c.jobs {
		switch j.state {
		case jobPending:
			st.Pending++
		case jobLeased:
			st.Leased++
		case jobDone:
			st.Done++
		}
	}
	st.Drained = st.Done == len(c.jobs)
	for _, w := range c.workers {
		leased := 0
		for _, j := range c.jobs {
			if j.state == jobLeased && j.workerID == w.id {
				leased++
			}
		}
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, Name: w.name, Parallel: w.parallel,
			Jobs: w.jobs, Leased: leased, LastSeen: w.lastSeen,
		})
	}
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].ID < st.Workers[k].ID })
	return st
}

// Manifest assembles the distributed run's manifest: the serial
// manifest fields plus coordinator address, worker count and
// per-worker merged-job tallies.
func (c *Coordinator) Manifest() sweep.Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	m := sweep.Manifest{
		RunID:         fmt.Sprintf("%x", c.started.UnixNano()),
		StartedAt:     c.started,
		FinishedAt:    now,
		WallSeconds:   now.Sub(c.started).Seconds(),
		Submitted:     len(c.jobs),
		Deduped:       c.deduped,
		Completed:     c.completed,
		Cached:        c.cached,
		Quarantined:   c.quarantined,
		StoreErrors:   c.storeErrs,
		Coordinator:   c.opts.Addr,
		RemoteWorkers: len(c.workers),
	}
	if len(c.workers) > 0 {
		m.WorkerJobs = map[string]int{}
		for _, w := range c.workers {
			m.WorkerJobs[w.id+"/"+w.name] = w.jobs
		}
	}
	for _, j := range c.jobs {
		if j.state == jobDone && j.rec.Status == sweep.StatusQuarantined {
			m.QuarantinedJobs = append(m.QuarantinedJobs, j.rec.Label)
		}
	}
	sort.Strings(m.QuarantinedJobs)
	return m
}

// Shutdown writes the run manifest next to the store and closes the
// store. The coordinator must not receive requests afterwards.
func (c *Coordinator) Shutdown() (sweep.Manifest, error) {
	m := c.Manifest()
	m.Store = c.opts.Store.Path()
	err := sweep.WriteManifest(c.opts.Store.ManifestPath(), m)
	if cerr := c.opts.Store.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decode(w, r, &req) {
			return
		}
		reply(w, c.register(req))
	})
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decode(w, r, &req) {
			return
		}
		// The coordinator vets that every spec describes a well-formed
		// run (cores, variant configurations, placements within the
		// hierarchy, records, config) without constructing designs or
		// resolving traces — that stays on the workers.
		for _, spec := range req.Jobs {
			if spec.ID == "" {
				continue
			}
			if err := spec.Run.Validate(); err != nil {
				http.Error(w, fmt.Sprintf("invalid job %s (%s): %v", spec.ID, spec.Label, err),
					http.StatusBadRequest)
				return
			}
		}
		reply(w, c.submit(req))
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.lease(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		reply(w, resp)
	})
	mux.HandleFunc(PathReport, func(w http.ResponseWriter, r *http.Request) {
		var req ReportRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.report(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		reply(w, resp)
	})
	mux.HandleFunc(PathResults, func(w http.ResponseWriter, r *http.Request) {
		var req ResultsRequest
		if !decode(w, r, &req) {
			return
		}
		reply(w, c.results(req))
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		reply(w, c.Status())
	})
	return c.authMiddleware(mux)
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
