package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmp/internal/core"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/sweep"
)

// fakeBuild resolves every run spec into a deterministic synthetic
// result seeded from the spec's trace key and variant name — a
// stand-in for a real simulation that makes record-for-record
// comparison meaningful.
func fakeBuild(rs runspec.RunSpec) (func(context.Context) []sim.Result, error) {
	key, pf := rs.TraceKey(), rs.Cores[0].Variant.Name
	h := fnv.New64a()
	h.Write([]byte(key + "|" + pf))
	seed := h.Sum64()
	return func(ctx context.Context) []sim.Result {
		return []sim.Result{{
			Trace:        key,
			Prefetcher:   pf,
			Instructions: seed % 1_000_000,
			Cycles:       seed % 500_000,
		}}
	}, nil
}

// serveCoordinator spins up a coordinator over a sweep on a fresh
// store behind an httptest server.
func serveCoordinator(t *testing.T, opts CoordinatorOptions, sopts sweep.Options) (*Coordinator, *httptest.Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	c, sw := coordinatorOver(t, path, false, opts, sopts)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		sw.Close()
	})
	return c, srv, path
}

// coordinatorOver builds a coordinator over a sweep with no local
// workers on the store at path, resuming the store when resume is set.
func coordinatorOver(t *testing.T, path string, resume bool, opts CoordinatorOptions, sopts sweep.Options) (*Coordinator, *sweep.Sweep) {
	t.Helper()
	store, err := sweep.OpenStore(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	sopts.Store = store
	opts.Sweep = sweep.New(context.Background(), sopts)
	return NewCoordinator(opts), opts.Sweep
}

// swappable serves whichever handler was stored last, so a test can
// restart the coordinator behind a listener that keeps serving.
type swappable struct{ atomic.Value }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.Load().(http.Handler).ServeHTTP(w, r)
}

// e2eSpecs is the shared job set for the determinism tests.
func e2eSpecs(n int) []runspec.RunSpec {
	specs := make([]runspec.RunSpec, n)
	for i := range specs {
		specs[i] = wireRun(fmt.Sprintf("trace-%d", i), fmt.Sprintf("pf-%d", i%3))
	}
	return specs
}

// runDistributed drives a full run: submit, N workers until drained,
// wait for all records, and return the store's canonical dump.
func runDistributed(t *testing.T, nWorkers int, specs []runspec.RunSpec) []byte {
	t.Helper()
	_, srv, path := serveCoordinator(t, CoordinatorOptions{
		LeaseMax:   4,
		DrainGrace: 50 * time.Millisecond,
	}, sweep.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cl := NewClient(srv.URL)
	cl.Poll = 10 * time.Millisecond
	if err := cl.Submit(ctx, specs); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{
				Coordinator:     srv.URL,
				Name:            fmt.Sprintf("e2e-%d", i),
				Parallel:        2,
				Build:           fakeBuild,
				Poll:            10 * time.Millisecond,
				ExitWhenDrained: true,
			})
			if err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	recs, err := cl.Wait(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("resolved %d/%d jobs", len(recs), len(specs))
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := sweep.WriteCanonical(&buf, path); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The core invariant of distributed mode: the merged store of an
// N-worker run is canonically byte-identical to a serial run of the
// same jobs.
func TestDistributedDeterminism1v3(t *testing.T) {
	specs := e2eSpecs(24)

	// Serial baseline: the same jobs through a plain local pool.
	serialPath := filepath.Join(t.TempDir(), "serial.jsonl")
	store, err := sweep.OpenStore(serialPath, false)
	if err != nil {
		t.Fatal(err)
	}
	pool := sweep.New(context.Background(), sweep.Options{Workers: 1, Store: store})
	for _, s := range specs {
		run, _ := fakeBuild(s)
		pool.Submit(sweep.Job{Spec: s, Run: run})
	}
	pool.Close()
	store.Close()
	var serial bytes.Buffer
	if err := sweep.WriteCanonical(&serial, serialPath); err != nil {
		t.Fatal(err)
	}

	one := runDistributed(t, 1, specs)
	three := runDistributed(t, 3, specs)

	if !bytes.Equal(serial.Bytes(), one) {
		t.Errorf("1-worker canonical dump differs from serial:\nserial:\n%s\n1-worker:\n%s", &serial, one)
	}
	if !bytes.Equal(serial.Bytes(), three) {
		t.Errorf("3-worker canonical dump differs from serial:\nserial:\n%s\n3-worker:\n%s", &serial, three)
	}
}

// A worker that dies mid-batch has its jobs re-leased to a survivor
// and the run still completes with every record intact.
func TestWorkerDeathRelease(t *testing.T) {
	coord, srv, path := serveCoordinator(t, CoordinatorOptions{
		LeaseTTL:   400 * time.Millisecond,
		LeaseMax:   4,
		DrainGrace: 50 * time.Millisecond,
	}, sweep.Options{MaxAttempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	specs := e2eSpecs(8)
	cl := NewClient(srv.URL)
	cl.Poll = 10 * time.Millisecond
	if err := cl.Submit(ctx, specs); err != nil {
		t.Fatal(err)
	}

	// The victim leases jobs but never finishes one: its Build blocks
	// until its context is canceled (the SIGKILL stand-in).
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		_ = RunWorker(victimCtx, WorkerOptions{
			Coordinator: srv.URL,
			Name:        "victim",
			Parallel:    2,
			Build: func(runspec.RunSpec) (func(context.Context) []sim.Result, error) {
				return func(jctx context.Context) []sim.Result {
					<-jctx.Done()
					return nil
				}, nil
			},
			Poll: 10 * time.Millisecond,
		})
	}()

	// Wait until the victim actually holds a lease, then kill it. If
	// the kill could land before any lease, the test would be vacuous.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := coord.Status(); st.Leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	killVictim()
	<-victimDone

	// The survivor drains everything, including the victim's backlog.
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{
			Coordinator:     srv.URL,
			Name:            "survivor",
			Parallel:        2,
			Build:           fakeBuild,
			Poll:            10 * time.Millisecond,
			ExitWhenDrained: true,
		})
	}()

	recs, err := cl.Wait(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil && ctx.Err() == nil {
		t.Fatalf("survivor: %v", err)
	}
	for _, s := range specs {
		rec, ok := recs[s.ID()]
		if !ok || rec.Status != sweep.StatusOK {
			t.Fatalf("job %s not OK after re-lease: %+v (ok=%v)", s.ID(), rec, ok)
		}
	}
	st := coord.Status()
	if st.Expired == 0 {
		t.Fatal("no lease expired — the victim's death was never exercised")
	}
	if st.Quarantined != 0 {
		t.Fatalf("%d jobs quarantined; re-lease should have recovered them all", st.Quarantined)
	}
	onDisk, _, err := sweep.ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(specs) {
		t.Fatalf("store has %d records, want %d", len(onDisk), len(specs))
	}
}

// A spec the worker cannot build comes back as a quarantined record
// instead of running, and the rest of its batch completes.
func TestUnbuildableJobIsQuarantined(t *testing.T) {
	coord, srv, _ := serveCoordinator(t, CoordinatorOptions{
		LeaseMax:   4,
		DrainGrace: 50 * time.Millisecond,
	}, sweep.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	specs := e2eSpecs(6)
	bad := specs[2]
	cl := NewClient(srv.URL)
	cl.Poll = 10 * time.Millisecond
	if err := cl.Submit(ctx, specs); err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{
			Coordinator: srv.URL,
			Name:        "picky",
			Parallel:    2,
			Build: func(rs runspec.RunSpec) (func(context.Context) []sim.Result, error) {
				if rs.TraceKey() == bad.TraceKey() {
					return nil, errors.New("no such trace")
				}
				return fakeBuild(rs)
			},
			Poll:            10 * time.Millisecond,
			ExitWhenDrained: true,
		})
	}()

	recs, err := cl.Wait(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil && ctx.Err() == nil {
		t.Fatalf("worker: %v", err)
	}
	rec := recs[bad.ID()]
	if rec.Status != sweep.StatusQuarantined || rec.Err != "resolve: no such trace" ||
		rec.Attempts != 1 || rec.Label != bad.Label() {
		t.Errorf("unbuildable job record = %+v, want quarantined, resolve error, 1 attempt, label %q", rec, bad.Label())
	}
	for _, s := range specs {
		if s.ID() != bad.ID() && recs[s.ID()].Status != sweep.StatusOK {
			t.Errorf("job %s: %+v, want ok", s.ID(), recs[s.ID()])
		}
	}
	if st := coord.Status(); st.Quarantined != 1 || st.Completed != 5 {
		t.Errorf("status quarantined/completed = %d/%d, want 1/5", st.Quarantined, st.Completed)
	}
}

// A spec whose variant would panic inside the job (a PMP with no
// trigger bits) is refused at /submit with 400, and nothing from its
// batch is queued.
func TestSubmitRejectsInvalidVariant(t *testing.T) {
	coord, srv, _ := serveCoordinator(t, CoordinatorOptions{}, sweep.Options{})
	specs := e2eSpecs(3)
	cfg := core.DefaultConfig()
	cfg.TriggerBits = 0
	specs[1].Cores[0].Variant = runspec.VariantSpec{Name: "pmp-tw0", PMP: &cfg}

	err := NewClient(srv.URL).Submit(context.Background(), specs)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("submit of an invalid variant: err %v, want a 400 StatusError", err)
	}
	if st := coord.Status(); st.Submitted != 0 || st.Pending != 0 {
		t.Errorf("status after a rejected submit = %+v, want nothing queued", st)
	}
}

// A worker outlives a coordinator restart: it keeps leasing from the
// replacement (resumed from the same store) with no registration, and
// the coordinator learns it on first contact.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	c1, sw1 := coordinatorOver(t, path, false, CoordinatorOptions{LeaseMax: 2}, sweep.Options{})
	var current swappable
	current.Store(c1.Handler())
	srv := httptest.NewServer(&current)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	specs := e2eSpecs(6)
	cl := NewClient(srv.URL)
	cl.Poll = 10 * time.Millisecond
	if err := cl.Submit(ctx, specs[:3]); err != nil {
		t.Fatal(err)
	}

	// The worker must outlive the restart, so it polls forever and is
	// canceled explicitly at the end.
	wctx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(wctx, WorkerOptions{
			Coordinator: srv.URL,
			Name:        "steady",
			Parallel:    1,
			Build:       fakeBuild,
			Poll:        10 * time.Millisecond,
		})
	}()

	if _, err := cl.Wait(ctx, specs[:3]); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh coordinator resumes the same store behind the
	// same listener, and the worker's next lease goes to it.
	sw1.Close()
	c2, sw2 := coordinatorOver(t, path, true, CoordinatorOptions{LeaseMax: 2}, sweep.Options{})
	defer sw2.Close()
	current.Store(c2.Handler())

	if err := cl.Submit(ctx, specs); err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); st.Submitted != 6 || st.Cached != 3 {
		t.Fatalf("status after resubmit: %+v, want 6 submitted, 3 cached", st)
	}
	recs, err := cl.Wait(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("resolved %d/%d after restart", len(recs), len(specs))
	}
	if st := c2.Status(); len(st.Workers) != 1 || st.Workers[0].Name != "steady" {
		t.Fatalf("replacement coordinator's workers = %+v, want the steady worker", st.Workers)
	}
	stopWorker()
	if err := <-workerDone; err != nil && ctx.Err() == nil && err != context.Canceled {
		t.Fatalf("worker: %v", err)
	}
}

// A client waiting across a coordinator restart gets every record: the
// replacement reports the IDs it was never submitted as unknown, the
// client submits them again, and the resumed store serves them.
func TestWaitResubmitsAfterCoordinatorRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	c1, sw1 := coordinatorOver(t, path, false, CoordinatorOptions{}, sweep.Options{})
	var current swappable
	current.Store(c1.Handler())
	srv := httptest.NewServer(&current)
	defer srv.Close()

	specs := e2eSpecs(3)
	cl := NewClient(srv.URL)
	cl.Poll = 10 * time.Millisecond
	if err := cl.Submit(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	var recs []sweep.Record
	for _, rs := range specs {
		recs = append(recs, okRecord(rs))
	}
	if resp := c1.report(ReportRequest{Worker: testWorker("w"), Records: recs}); resp.Accepted != 3 {
		t.Fatalf("report: %+v, want 3 accepted", resp)
	}

	sw1.Close()
	c2, sw2 := coordinatorOver(t, path, true, CoordinatorOptions{}, sweep.Options{})
	defer sw2.Close()
	current.Store(c2.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := cl.Wait(ctx, specs)
	if err != nil {
		t.Fatalf("wait after restart: %v (%d of %d records)", err, len(got), len(specs))
	}
	for _, rs := range specs {
		if got[rs.ID()].Status != sweep.StatusOK {
			t.Errorf("%s: %+v, want the stored ok record", rs.Label(), got[rs.ID()])
		}
	}
	if st := c2.Status(); st.Cached != 3 {
		t.Errorf("replacement coordinator cached %d jobs, want 3", st.Cached)
	}
}
