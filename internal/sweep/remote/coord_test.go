package remote

import (
	"fmt"
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

// testCoordinator builds a coordinator over a temp store with a fake
// clock.
func testCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, *fakeClock, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := sweep.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	clk := newFakeClock()
	opts.Store = store
	opts.Now = clk.Now
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	return NewCoordinator(opts), clk, path
}

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
	c, clk, path := testCoordinator(t, CoordinatorOptions{MaxAttempts: 2})

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1)}})
	w1 := c.register(RegisterRequest{Name: "w1"}).WorkerID
	w2 := c.register(RegisterRequest{Name: "w2"}).WorkerID

	lease1, err := c.lease(LeaseRequest{WorkerID: w1})
	if err != nil || len(lease1.Jobs) != 1 {
		t.Fatalf("first lease: %v jobs=%d", err, len(lease1.Jobs))
	}
	// Before expiry nothing is pending for anyone else.
	if l, _ := c.lease(LeaseRequest{WorkerID: w2}); len(l.Jobs) != 0 {
		t.Fatalf("job leased twice before expiry")
	}

	// w1 dies: its lease lapses and the survivor picks the job up.
	clk.Advance(11 * time.Second)
	lease2, err := c.lease(LeaseRequest{WorkerID: w2})
	if err != nil || len(lease2.Jobs) != 1 {
		t.Fatalf("re-lease after expiry: %v jobs=%d", err, len(lease2.Jobs))
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
	c, clk, _ := testCoordinator(t, CoordinatorOptions{})

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	w1 := c.register(RegisterRequest{Name: "w1"}).WorkerID
	w2 := c.register(RegisterRequest{Name: "w2"}).WorkerID
	lease, err := c.lease(LeaseRequest{WorkerID: w1})
	if err != nil || len(lease.Jobs) != 2 {
		t.Fatalf("lease: %v jobs=%d", err, len(lease.Jobs))
	}

	// Heartbeat at 80% of TTL, repeatedly: the lease must survive far
	// past the original deadline.
	for i := 0; i < 5; i++ {
		clk.Advance(8 * time.Second)
		if _, err := c.report(ReportRequest{WorkerID: w1, LeaseID: lease.LeaseID}); err != nil {
			t.Fatal(err)
		}
	}
	if l, _ := c.lease(LeaseRequest{WorkerID: w2}); len(l.Jobs) != 0 {
		t.Fatalf("heartbeated lease was stolen")
	}
	if st := c.Status(); st.Expired != 0 {
		t.Fatalf("expired=%d after heartbeats, want 0", st.Expired)
	}
}

// A record arriving after its job was re-leased and completed
// elsewhere is dropped as stale, not double-stored.
func TestStaleReportDropped(t *testing.T) {
	c, clk, path := testCoordinator(t, CoordinatorOptions{MaxAttempts: 3})

	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1)}})
	w1 := c.register(RegisterRequest{Name: "w1"}).WorkerID
	w2 := c.register(RegisterRequest{Name: "w2"}).WorkerID
	l1, _ := c.lease(LeaseRequest{WorkerID: w1})
	clk.Advance(11 * time.Second)
	l2, _ := c.lease(LeaseRequest{WorkerID: w2})
	if len(l2.Jobs) != 1 {
		t.Fatalf("expected re-lease to w2, got %d jobs", len(l2.Jobs))
	}
	if resp, _ := c.report(ReportRequest{WorkerID: w2, LeaseID: l2.LeaseID,
		Records: []sweep.Record{okRecord(spec(1))}}); resp.Accepted != 1 {
		t.Fatalf("w2 report not accepted: %+v", resp)
	}
	// w1 was only stalled, not dead, and reports late.
	resp, err := c.report(ReportRequest{WorkerID: w1, LeaseID: l1.LeaseID,
		Records: []sweep.Record{okRecord(spec(1))}})
	if err != nil || resp.Stale != 1 || resp.Accepted != 0 {
		t.Fatalf("late report: err=%v resp=%+v, want 1 stale", err, resp)
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
	defer store.Close()
	c := NewCoordinator(CoordinatorOptions{Store: store})

	resp := c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if resp.Cached != 1 || resp.Accepted != 1 {
		t.Fatalf("submit over resumed store: %+v, want 1 cached 1 accepted", resp)
	}
	resp = c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	if resp.Deduped != 2 {
		t.Fatalf("re-submit: %+v, want 2 deduped", resp)
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
	c, _, _ := testCoordinator(t, CoordinatorOptions{})
	at := func(level int) runspec.RunSpec {
		rs := spec(1)
		rs.Placements = []runspec.Placement{{Level: level, Variant: runspec.VariantSpec{Name: "pf", Registry: "pf"}}}
		return rs
	}
	l1, l2 := at(1), at(2)
	if l1.ID() == l2.ID() {
		t.Fatalf("placements at L1 and L2 share ID %s", l1.ID())
	}
	if resp := c.submit(SubmitRequest{Jobs: []runspec.RunSpec{l1, l2}}); resp.Accepted != 2 || resp.Deduped != 0 {
		t.Fatalf("submit of two placements: %+v, want 2 accepted, 0 deduped", resp)
	}
	w := c.register(RegisterRequest{Name: "w"}).WorkerID
	lease, err := c.lease(LeaseRequest{WorkerID: w})
	if err != nil || len(lease.Jobs) != 2 {
		t.Fatalf("lease: %v jobs=%d, want 2", err, len(lease.Jobs))
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
	c, _, path := testCoordinator(t, CoordinatorOptions{LeaseMax: 1000})

	const jobs = 200
	var specs []runspec.RunSpec
	for i := 0; i < jobs; i++ {
		specs = append(specs, spec(i))
	}
	c.submit(SubmitRequest{Jobs: specs})

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		id := c.register(RegisterRequest{Name: fmt.Sprintf("w%d", w)}).WorkerID
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lease, err := c.lease(LeaseRequest{WorkerID: id, Max: 4})
				if err != nil || len(lease.Jobs) == 0 {
					return
				}
				for _, s := range lease.Jobs {
					if _, err := c.report(ReportRequest{WorkerID: id, LeaseID: lease.LeaseID,
						Records: []sweep.Record{okRecord(s)}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st := c.Status()
	if st.Done != jobs || st.Completed != jobs || !st.Drained {
		t.Fatalf("after concurrent drain: %+v", st)
	}
	recs, skipped, err := sweep.ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != jobs || skipped != 0 {
		t.Fatalf("store has %d records (%d skipped), want %d", len(recs), skipped, jobs)
	}
	total := 0
	for _, w := range st.Workers {
		total += w.Jobs
	}
	if total != jobs {
		t.Fatalf("per-worker tallies sum to %d, want %d", total, jobs)
	}
}

// The manifest records the distributed-run audit trail: coordinator
// address, worker count, per-worker tallies.
func TestManifestRecordsWorkers(t *testing.T) {
	c, _, _ := testCoordinator(t, CoordinatorOptions{Addr: "127.0.0.1:7077"})
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1)}})
	w1 := c.register(RegisterRequest{Name: "alpha"}).WorkerID
	l, _ := c.lease(LeaseRequest{WorkerID: w1})
	c.report(ReportRequest{WorkerID: w1, LeaseID: l.LeaseID, Records: []sweep.Record{okRecord(spec(1))}})

	m := c.Manifest()
	if m.Coordinator != "127.0.0.1:7077" || m.RemoteWorkers != 1 {
		t.Fatalf("manifest: %+v", m)
	}
	if m.WorkerJobs[w1+"/alpha"] != 1 {
		t.Fatalf("worker tallies: %+v", m.WorkerJobs)
	}
	if m.Completed != 1 || m.Submitted != 1 {
		t.Fatalf("manifest counters: %+v", m)
	}
}

// Jobs shard by ID hash: with every worker polling, each job is
// granted exactly once and the shards roughly balance.
func TestLeaseSharding(t *testing.T) {
	c, _, _ := testCoordinator(t, CoordinatorOptions{LeaseMax: 1000})
	const jobs = 100
	var specs []runspec.RunSpec
	for i := 0; i < jobs; i++ {
		specs = append(specs, spec(i))
	}
	c.submit(SubmitRequest{Jobs: specs})
	w1 := c.register(RegisterRequest{Name: "w1"}).WorkerID
	w2 := c.register(RegisterRequest{Name: "w2"}).WorkerID

	l1, _ := c.lease(LeaseRequest{WorkerID: w1, Max: jobs / 2})
	l2, _ := c.lease(LeaseRequest{WorkerID: w2, Max: jobs})
	if len(l1.Jobs)+len(l2.Jobs) != jobs {
		t.Fatalf("leased %d+%d, want %d total", len(l1.Jobs), len(l2.Jobs), jobs)
	}
	// w1 asked for half and gets only its own shard first; none of its
	// granted jobs should hash to w2's shard unless stolen, and there
	// was nothing to steal yet.
	for _, s := range l1.Jobs[:min(len(l1.Jobs), jobs/4)] {
		if shardOf(s.ID(), 2) != 0 {
			t.Fatalf("w1 granted job %s from shard %d before its own shard drained", s.ID(), shardOf(s.ID(), 2))
		}
	}
}

// The empty-lease Drained signal must survive the transient drain
// between a driving client's sequential submission waves: it only
// fires once the coordinator has sat fully resolved with no client
// contact for DrainGrace, and never before the first submission.
func TestDrainSignalSurvivesSubmissionWaves(t *testing.T) {
	c, clk, _ := testCoordinator(t, CoordinatorOptions{DrainGrace: 5 * time.Second})
	w1 := c.register(RegisterRequest{Name: "w1"}).WorkerID

	// No client has ever submitted: an idle worker must keep waiting.
	if l, _ := c.lease(LeaseRequest{WorkerID: w1}); l.Drained {
		t.Fatal("drained before any submission")
	}
	clk.Advance(time.Hour)
	if l, _ := c.lease(LeaseRequest{WorkerID: w1}); l.Drained {
		t.Fatal("drained before any submission, even after an hour")
	}

	// Wave 1: submit, run, report. The job space is now transiently
	// drained, but the client contacted us moments ago.
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(1), spec(2)}})
	l, err := c.lease(LeaseRequest{WorkerID: w1})
	if err != nil || len(l.Jobs) != 2 {
		t.Fatalf("wave 1 lease: %v jobs=%d", err, len(l.Jobs))
	}
	c.report(ReportRequest{WorkerID: w1, LeaseID: l.LeaseID,
		Records: []sweep.Record{okRecord(spec(1)), okRecord(spec(2))}})
	if l, _ := c.lease(LeaseRequest{WorkerID: w1}); l.Drained {
		t.Fatal("drained in the gap right after wave 1, before the grace")
	}

	// A results poll inside the grace window is client contact and
	// restarts the clock.
	clk.Advance(4 * time.Second)
	c.results(ResultsRequest{IDs: []string{spec(1).ID()}})
	clk.Advance(4 * time.Second)
	if l, _ := c.lease(LeaseRequest{WorkerID: w1}); l.Drained {
		t.Fatal("drained 4s after a results poll, inside the 5s grace")
	}

	// Wave 2 lands inside the grace: business as usual.
	c.submit(SubmitRequest{Jobs: []runspec.RunSpec{spec(3)}})
	l, err = c.lease(LeaseRequest{WorkerID: w1})
	if err != nil || len(l.Jobs) != 1 {
		t.Fatalf("wave 2 lease: %v jobs=%d", err, len(l.Jobs))
	}
	c.report(ReportRequest{WorkerID: w1, LeaseID: l.LeaseID,
		Records: []sweep.Record{okRecord(spec(3))}})

	// Only once the client has been silent for the full grace does the
	// run count as over.
	clk.Advance(5*time.Second - time.Millisecond)
	if l, _ := c.lease(LeaseRequest{WorkerID: w1}); l.Drained {
		t.Fatal("drained a millisecond before the grace elapsed")
	}
	clk.Advance(time.Millisecond)
	l, _ = c.lease(LeaseRequest{WorkerID: w1})
	if !l.Drained {
		t.Fatal("not drained after the grace elapsed with no client contact")
	}
}
