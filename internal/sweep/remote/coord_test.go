package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testCoordinator builds a coordinator with a fake clock over a sweep
// with no local workers and a temp store.
func testCoordinator(t *testing.T, opts CoordinatorOptions, sopts sweep.Options) (*Coordinator, *fakeClock, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := sweep.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sopts.Store = store
	opts.Sweep = sweep.New(context.Background(), sopts)
	t.Cleanup(func() { opts.Sweep.Close() })
	clk := newFakeClock()
	opts.Now = clk.Now
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	return NewCoordinator(opts), clk, path
}

// testWorker names a test worker.
func testWorker(name string) Worker { return Worker{ID: name + "-id", Name: name} }

func spec(i int) runspec.RunSpec {
	return wireRun(fmt.Sprintf("trace-%d", i), "pf")
}

// wireRun is a structurally valid single-core run spec for wire tests;
// nothing here ever builds it.
func wireRun(traceName, pf string) runspec.RunSpec {
	return runspec.RunSpec{
		Cores: []runspec.CoreSpec{{
			Trace:   runspec.TraceRef{Name: traceName},
			Variant: runspec.VariantSpec{Name: pf, Registry: pf},
		}},
		Records: 1000,
		Config:  sim.DefaultConfig(),
	}
}

func okRecord(rs runspec.RunSpec) sweep.Record {
	return sweep.Record{
		ID: rs.ID(), Label: rs.Label(), Prefetcher: rs.Name(), Trace: rs.TraceKey(),
		Status: sweep.StatusOK, Attempts: 1,
		Result: sim.Result{Instructions: 100, Cycles: 50},
	}
}

// A worker that dies has its lease expire, the job re-leases to a
// survivor, and after MaxAttempts expired leases the job is
// quarantined with a store record — in that order.
func TestLeaseExpiryReleaseThenQuarantine(t *testing.T) {
	c, clk, path := testCoordinator(t, CoordinatorOptions{}, sweep.Options{MaxAttempts: 2})
	w1, w2 := testWorker("w1"), testWorker("w2")

	if err := c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1)}}); err != nil {
		t.Fatal(err)
	}
	lease1 := c.lease(LeaseRequest{Worker: w1})
	if len(lease1.Jobs) != 1 || lease1.LeaseTTL != 10*time.Second {
		t.Fatalf("first lease: %d jobs, TTL %v", len(lease1.Jobs), lease1.LeaseTTL)
	}
	// Before expiry nothing is pending for anyone else.
	if l := c.lease(LeaseRequest{Worker: w2}); len(l.Jobs) != 0 {
		t.Fatalf("job leased twice before expiry")
	}

	// w1 dies: its lease lapses and the survivor picks the job up.
	clk.Advance(11 * time.Second)
	if l := c.lease(LeaseRequest{Worker: w2}); len(l.Jobs) != 1 {
		t.Fatalf("re-lease after expiry: %d jobs", len(l.Jobs))
	}
	if got := c.Status(); got.Expired != 1 || got.Quarantined != 0 {
		t.Fatalf("after first expiry: expired=%d quarantined=%d, want 1/0", got.Expired, got.Quarantined)
	}

	// w2 dies too: attempts exhausted, the job quarantines.
	clk.Advance(11 * time.Second)
	st := c.Status()
	if st.Expired != 2 || st.Quarantined != 1 || st.Done != 1 {
		t.Fatalf("after second expiry: %+v", st)
	}
	res := c.results(ResultsRequest{IDs: []string{spec(1).ID()}})
	if len(res.Records) != 1 || res.Records[0].Status != sweep.StatusQuarantined {
		t.Fatalf("quarantine record not served: %+v", res)
	}
	if !strings.Contains(res.Records[0].Err, "lease expired") {
		t.Fatalf("quarantine error %q does not name the lease expiry", res.Records[0].Err)
	}

	recs, _, err := sweep.ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := recs[spec(1).ID()]; !ok || rec.Status != sweep.StatusQuarantined {
		t.Fatalf("store record after quarantine: %+v (ok=%v)", rec, ok)
	}
}

// A report is also a heartbeat: it extends the reporting worker's
// other leases, so a slow job on a live worker is never re-leased.
func TestReportHeartbeatExtendsLease(t *testing.T) {
	c, clk, _ := testCoordinator(t, CoordinatorOptions{}, sweep.Options{})
	w1, w2 := testWorker("w1"), testWorker("w2")

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if l := c.lease(LeaseRequest{Worker: w1}); len(l.Jobs) != 2 {
		t.Fatalf("lease: %d jobs", len(l.Jobs))
	}

	// Heartbeat at 80% of TTL, repeatedly: the lease must survive far
	// past the original deadline.
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second)
		c.report(ReportRequest{Worker: w1})
	}
	if l := c.lease(LeaseRequest{Worker: w2}); len(l.Jobs) != 0 {
		t.Fatalf("heartbeated lease was stolen")
	}
	if st := c.Status(); st.Expired != 0 || st.Leased != 2 {
		t.Fatalf("expired=%d leased=%d after heartbeats, want 0/2", st.Expired, st.Leased)
	}
}

// A record arriving after its job was re-leased and completed
// elsewhere is dropped as stale, not double-stored.
func TestStaleReportDropped(t *testing.T) {
	c, clk, path := testCoordinator(t, CoordinatorOptions{}, sweep.Options{MaxAttempts: 3})
	w1, w2 := testWorker("w1"), testWorker("w2")

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1)}})
	c.lease(LeaseRequest{Worker: w1})
	clk.Advance(11 * time.Second)
	if l := c.lease(LeaseRequest{Worker: w2}); len(l.Jobs) != 1 {
		t.Fatalf("expected re-lease to w2, got %d jobs", len(l.Jobs))
	}
	if resp := c.report(ReportRequest{Worker: w2, Records: []sweep.Record{okRecord(spec(1))}}); resp.Accepted != 1 {
		t.Fatalf("w2 report not accepted: %+v", resp)
	}
	// w1 was only stalled, not dead, and reports late.
	if resp := c.report(ReportRequest{Worker: w1, Records: []sweep.Record{okRecord(spec(1))}}); resp.Stale != 1 || resp.Accepted != 0 {
		t.Fatalf("late report: %+v, want 1 stale", resp)
	}
	recs, _, err := sweep.ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store has %d records, want 1", len(recs))
	}
}

// Submission is idempotent, and a resumed store serves completed jobs
// without leasing them.
func TestSubmitDedupAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	store, err := sweep.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(okRecord(spec(1))); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store, err = sweep.OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	sw := sweep.New(context.Background(), sweep.Options{Store: store})
	defer sw.Close()
	c := NewCoordinator(CoordinatorOptions{Sweep: sw})

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if st := c.Status(); st.Submitted != 2 || st.Cached != 1 || st.Pending != 1 {
		t.Fatalf("status after submit over a resumed store: %+v, want 2 submitted, 1 cached, 1 pending", st)
	}
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if st := c.Status(); st.Submitted != 2 || st.Deduped != 2 {
		t.Fatalf("status after re-submit: %+v, want 2 submitted, 2 deduped", st)
	}
	res := c.results(ResultsRequest{IDs: []string{spec(1).ID()}})
	if len(res.Records) != 1 || res.Records[0].Status != sweep.StatusOK {
		t.Fatalf("cached record not served: %+v", res)
	}
}

// Two specs that differ only in a placement are two runs: they get
// distinct IDs and a submit of both queues two jobs, each leased with
// its own placement. (Keyed by a caller-chosen name, both used to fold
// onto the first.)
func TestSubmitKeysPlacements(t *testing.T) {
	c, _, _ := testCoordinator(t, CoordinatorOptions{}, sweep.Options{})
	at := func(level int) runspec.RunSpec {
		rs := spec(1)
		rs.Placements = []runspec.Placement{{Level: level, Variant: runspec.VariantSpec{Name: "pf", Registry: "pf"}}}
		return rs
	}
	l1, l2 := at(1), at(2)
	if l1.ID() == l2.ID() {
		t.Fatalf("placements at L1 and L2 share ID %s", l1.ID())
	}
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{l1, l2}})
	if st := c.Status(); st.Submitted != 2 || st.Deduped != 0 {
		t.Fatalf("status after a submit of two placements: %+v, want 2 submitted, 0 deduped", st)
	}
	lease := c.lease(LeaseRequest{Worker: testWorker("w")})
	if len(lease.Jobs) != 2 {
		t.Fatalf("lease: %d jobs, want 2", len(lease.Jobs))
	}
	levels := map[int]bool{}
	for _, rs := range lease.Jobs {
		levels[rs.Placements[0].Level] = true
	}
	if !levels[1] || !levels[2] {
		t.Errorf("leased placements at levels %v, want 1 and 2", levels)
	}
}

// Concurrent reports from many workers merge into the store without
// loss (the coordinator's merge path is the multi-writer case the
// store's locking exists for).
func TestConcurrentReportMerge(t *testing.T) {
	c, _, path := testCoordinator(t, CoordinatorOptions{LeaseMax: 1000}, sweep.Options{})

	const jobs = 200
	var specs []runspec.RunSpec
	for i := 0; i < jobs; i++ {
		specs = append(specs, spec(i))
	}
	c.submit(SubmitRequest{Jobs: specs})

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		self := testWorker(fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lease := c.lease(LeaseRequest{Worker: self, Max: 4})
				if len(lease.Jobs) == 0 {
					return
				}
				for _, s := range lease.Jobs {
					c.report(ReportRequest{Worker: self, Records: []sweep.Record{okRecord(s)}})
				}
			}
		}()
	}
	wg.Wait()

	st := c.Status()
	if st.Done != jobs || st.Completed != jobs || !st.Drained || len(st.Workers) != workers {
		t.Fatalf("after concurrent drain: %+v", st)
	}
	m := c.sw.Close()
	total := 0
	for _, n := range m.WorkerJobs {
		total += n
	}
	if total != jobs || len(m.WorkerJobs) > workers {
		t.Fatalf("per-worker tallies %v sum to %d, want %d", m.WorkerJobs, total, jobs)
	}
	recs, skipped, err := sweep.ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != jobs || skipped != 0 {
		t.Fatalf("store has %d records (%d skipped), want %d", len(recs), skipped, jobs)
	}
}

// The coordinator learns a worker on its first request, lease or
// report, and the manifest tallies each worker's records by its ID.
func TestManifestRecordsWorkers(t *testing.T) {
	c, _, _ := testCoordinator(t, CoordinatorOptions{}, sweep.Options{})
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	alpha, beta := testWorker("alpha"), testWorker("beta")
	c.lease(LeaseRequest{Worker: alpha, Max: 1})
	c.report(ReportRequest{Worker: alpha, Records: []sweep.Record{okRecord(spec(1))}})
	// beta never leased: a worker that outlived a coordinator restart
	// reports straight away, and its record for a queued job merges.
	if resp := c.report(ReportRequest{Worker: beta, Records: []sweep.Record{okRecord(spec(2))}}); resp.Accepted != 1 {
		t.Fatalf("report from a worker never seen before: %+v, want accepted", resp)
	}

	st := c.Status()
	if len(st.Workers) != 2 || st.Workers[0].Name != "alpha" || st.Workers[1].Name != "beta" {
		t.Fatalf("status workers: %+v", st.Workers)
	}
	m := c.sw.Close()
	if m.WorkerJobs[alpha.ID] != 1 || m.WorkerJobs[beta.ID] != 1 {
		t.Fatalf("worker tallies: %+v", m.WorkerJobs)
	}
	if m.Completed != 2 || m.Submitted != 2 {
		t.Fatalf("manifest counters: %+v", m)
	}
}

// The empty-lease Drained signal must survive the transient drain
// between a driving client's sequential submission waves: it only
// fires once the coordinator has sat fully resolved with no client
// contact for DrainGrace, and never before the first submission.
func TestDrainSignalSurvivesSubmissionWaves(t *testing.T) {
	c, clk, _ := testCoordinator(t, CoordinatorOptions{DrainGrace: 5 * time.Second}, sweep.Options{})
	w1 := testWorker("w1")

	// No client has ever submitted: an idle worker must keep waiting.
	if l := c.lease(LeaseRequest{Worker: w1}); l.Drained {
		t.Fatal("drained before any submission")
	}
	clk.Advance(time.Hour)
	if l := c.lease(LeaseRequest{Worker: w1}); l.Drained {
		t.Fatal("drained before any submission, even after an hour")
	}

	// Wave 1: submit, run, report. The job space is now transiently
	// drained, but the client contacted us moments ago.
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if l := c.lease(LeaseRequest{Worker: w1}); len(l.Jobs) != 2 {
		t.Fatalf("wave 1 lease: %d jobs", len(l.Jobs))
	}
	c.report(ReportRequest{Worker: w1, Records: []sweep.Record{okRecord(spec(1)), okRecord(spec(2))}})
	if l := c.lease(LeaseRequest{Worker: w1}); l.Drained {
		t.Fatal("drained in the gap right after wave 1, before the grace")
	}

	// A results poll inside the grace window is client contact and
	// restarts the clock.
	clk.Advance(4 * time.Second)
	c.results(ResultsRequest{IDs: []string{spec(1).ID()}})
	clk.Advance(4 * time.Second)
	if l := c.lease(LeaseRequest{Worker: w1}); l.Drained {
		t.Fatal("drained 4s after a results poll, inside the 5s grace")
	}

	// Wave 2 lands inside the grace: business as usual.
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(3)}})
	if l := c.lease(LeaseRequest{Worker: w1}); len(l.Jobs) != 1 {
		t.Fatalf("wave 2 lease: %d jobs", len(l.Jobs))
	}
	c.report(ReportRequest{Worker: w1, Records: []sweep.Record{okRecord(spec(3))}})

	// Only once the client has been silent for the full grace does the
	// run count as over.
	clk.Advance(5*time.Second - time.Millisecond)
	if l := c.lease(LeaseRequest{Worker: w1}); l.Drained {
		t.Fatal("drained a millisecond before the grace elapsed")
	}
	clk.Advance(time.Millisecond)
	if l := c.lease(LeaseRequest{Worker: w1}); !l.Drained {
		t.Fatal("not drained after the grace elapsed with no client contact")
	}
}

// The results poll sorts requested IDs into resolved, pending and
// never submitted.
func TestResultsListsUnknownIDs(t *testing.T) {
	c, _, _ := testCoordinator(t, CoordinatorOptions{}, sweep.Options{})
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	c.lease(LeaseRequest{Worker: testWorker("w"), Max: 1})
	c.report(ReportRequest{Worker: testWorker("w"), Records: []sweep.Record{okRecord(spec(1))}})
	res := c.results(ResultsRequest{IDs: []string{spec(1).ID(), spec(2).ID(), spec(3).ID()}})
	if len(res.Records) != 1 || res.Pending != 1 || len(res.Unknown) != 1 || res.Unknown[0] != spec(3).ID() {
		t.Fatalf("results = %+v, want 1 record, 1 pending, spec 3 unknown", res)
	}
}

// Arbitrary bytes posted to any endpoint never panic the coordinator
// and get a 200 or a 400, and a 400 queues nothing.
func FuzzCoordinatorHandlers(f *testing.F) {
	paths := []string{PathSubmit, PathLease, PathReport, PathResults, PathStatus}
	for i, req := range []any{
		SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}},
		LeaseRequest{Worker: testWorker("w"), Max: 1},
		ReportRequest{Worker: testWorker("w"), Records: []sweep.Record{okRecord(spec(1))}},
		ResultsRequest{IDs: []string{spec(1).ID(), spec(2).ID(), "x"}},
		struct{}{},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), b)
	}
	f.Add(uint8(0), []byte(`{"jobs":[{"cores":[{"trace":{"name":"t"},"variant":{"name":"x"}}],"records":1}]}`))
	f.Add(uint8(1), []byte(`{"worker_id":"","max":-7}`))
	f.Add(uint8(2), []byte(`{"records":[{"id":""},{"id":"x","status":"quarantined"}]}`))

	sw := sweep.New(context.Background(), sweep.Options{MaxAttempts: 1})
	f.Cleanup(func() { sw.Close() })
	clk := newFakeClock()
	h := NewCoordinator(CoordinatorOptions{Sweep: sw, Now: clk.Now}).Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		// Each input moves the clock, so leases from earlier inputs
		// lapse and expiry runs too.
		clk.Advance(15 * time.Second)
		before := sw.Snapshot().Submitted
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, paths[int(endpoint)%len(paths)], bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if after := sw.Snapshot().Submitted; after != before {
				t.Errorf("a rejected request changed submitted from %d to %d", before, after)
			}
		default:
			t.Errorf("status %d for %q on %s", w.Code, body, paths[int(endpoint)%len(paths)])
		}
	})
}
