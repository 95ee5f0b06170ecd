package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
)

// t0 is the lease tests' clock origin; every lease test passes times
// relative to it.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// leaseSweep is a sweep with no local workers, as the coordinator runs
// it, holding jobs 0..n-1 (whose Run fails the test if called).
func leaseSweep(t *testing.T, n int, opts Options) *Sweep {
	t.Helper()
	s := New(context.Background(), opts)
	t.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		s.Submit(Job{Spec: testSpec(i), Run: func(context.Context) []sim.Result {
			t.Error("a sweep with no workers ran a job locally")
			return nil
		}})
	}
	return s
}

// okRecord is the record a worker reports for job i.
func okRecord(i int) Record {
	return Record{ID: testSpec(i).ID(), Label: testSpec(i).Label(), Status: StatusOK, Attempts: 1,
		Result: sim.Result{Instructions: uint64(i), Cycles: 1}}
}

func specIDs(specs []runspec.RunSpec) []string {
	ids := make([]string, len(specs))
	for i, rs := range specs {
		ids[i] = rs.ID()
	}
	return ids
}

// With Workers 0 nothing runs locally: every submitted job is still
// queued for Lease, which hands them out oldest first.
func TestLeaseIsFIFOAndWorkersZeroRunsNothing(t *testing.T) {
	s := leaseSweep(t, 5, Options{})
	if snap := s.Snapshot(); snap.Submitted != 5 || snap.Done != 0 || len(snap.Running) != 0 {
		t.Fatalf("snapshot before any lease = %+v, want 5 queued", snap)
	}
	first := s.Lease("w1", 2, t0.Add(time.Minute))
	rest := s.Lease("w2", 10, t0.Add(time.Minute))
	want := []string{testSpec(0).ID(), testSpec(1).ID()}
	if got := specIDs(first); !reflect.DeepEqual(got, want) {
		t.Errorf("first lease = %v, want the two oldest %v", got, want)
	}
	if len(rest) != 3 || rest[0].ID() != testSpec(2).ID() {
		t.Errorf("second lease = %v, want jobs 2..4 in order", specIDs(rest))
	}
	if more := s.Lease("w3", 10, t0.Add(time.Minute)); len(more) != 0 {
		t.Errorf("lease of an empty queue granted %d jobs", len(more))
	}
	if held := s.Held(); held["w1"] != 2 || held["w2"] != 3 || len(held) != 2 {
		t.Errorf("held = %v, want w1:2 w2:3", held)
	}
	if snap := s.Snapshot(); snap.Leased != 5 {
		t.Errorf("snapshot leased = %d, want 5", snap.Leased)
	}
}

// Renew moves every lease a worker holds, and only that worker's.
func TestRenewExtendsOnlyThatWorkersLeases(t *testing.T) {
	s := leaseSweep(t, 2, Options{})
	s.Lease("w1", 1, t0.Add(10*time.Second))
	s.Lease("w2", 1, t0.Add(10*time.Second))
	s.Renew("w1", t0.Add(30*time.Second))
	if n := s.Expire(t0.Add(20 * time.Second)); n != 1 {
		t.Fatalf("expired %d leases at 20s, want 1 (w2's)", n)
	}
	if held := s.Held(); held["w1"] != 1 || held["w2"] != 0 {
		t.Errorf("held after expiry = %v, want only w1's renewed lease", held)
	}
	if n := s.Expire(t0.Add(30 * time.Second)); n != 1 {
		t.Errorf("renewed lease did not lapse at its new deadline (expired %d)", n)
	}
}

// Finish accepts one record per job; an unknown ID and a second record
// for a resolved job are stale and leave the store alone.
func TestFinishRejectsStaleRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := leaseSweep(t, 1, Options{Store: st})
	s.Lease("w1", 1, t0.Add(time.Minute))
	if s.Finish("w1", Record{ID: "no-such-job", Status: StatusOK}) {
		t.Error("finish of an unknown ID was accepted")
	}
	if !s.Finish("w1", okRecord(0)) {
		t.Fatal("finish of a leased job was refused")
	}
	if s.Finish("w2", okRecord(0)) {
		t.Error("a second record for a resolved job was accepted")
	}
	m := s.Close()
	if m.Completed != 1 || m.WorkerJobs["w1"] != 1 || len(m.WorkerJobs) != 1 {
		t.Errorf("manifest completed %d, worker jobs %v; want 1 and w1:1", m.Completed, m.WorkerJobs)
	}
	recs, _, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("store holds %d records, want 1", len(recs))
	}
}

// A lapsed lease re-queues its job; the first worker's late record
// still resolves it, and the queue then skips it.
func TestLateFinishResolvesRequeuedJob(t *testing.T) {
	s := leaseSweep(t, 2, Options{MaxAttempts: 3})
	s.Lease("w1", 1, t0.Add(10*time.Second))
	if n := s.Expire(t0.Add(10 * time.Second)); n != 1 {
		t.Fatalf("expired %d leases at the deadline, want 1", n)
	}
	if !s.Finish("w1", okRecord(0)) {
		t.Fatal("late record for a re-queued job was refused")
	}
	got := s.Lease("w2", 10, t0.Add(time.Minute))
	if len(got) != 1 || got[0].ID() != testSpec(1).ID() {
		t.Errorf("lease after the late finish = %v, want only job 1", specIDs(got))
	}
	rec, done, known := s.Lookup(testSpec(0).ID())
	if !done || !known || rec.Result.Instructions != 0 || rec.Status != StatusOK {
		t.Errorf("lookup of the late-finished job = %+v done=%v known=%v", rec, done, known)
	}
	if snap := s.Snapshot(); snap.Expired != 1 || snap.Completed != 1 {
		t.Errorf("snapshot expired/completed = %d/%d, want 1/1", snap.Expired, snap.Completed)
	}
}

// Each lease uses an attempt: after MaxAttempts lapsed leases the job
// is quarantined, with a store record naming the expiry.
func TestExpiryQuarantinesAtMaxAttempts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := leaseSweep(t, 1, Options{MaxAttempts: 2, Store: st})
	id := testSpec(0).ID()
	for attempt, worker := range []string{"w1", "w2"} {
		now := t0.Add(time.Duration(attempt) * time.Minute)
		if got := s.Lease(worker, 1, now.Add(10*time.Second)); len(got) != 1 {
			t.Fatalf("attempt %d: lease granted %d jobs, want 1", attempt+1, len(got))
		}
		if _, done, _ := s.Lookup(id); done {
			t.Fatalf("job resolved before its attempts ran out")
		}
		s.Expire(now.Add(10 * time.Second))
	}
	rec, done, _ := s.Lookup(id)
	if !done || rec.Status != StatusQuarantined || rec.Attempts != 2 ||
		!strings.Contains(rec.Err, "lease expired 2 times (last worker w2)") {
		t.Fatalf("record after two lapsed leases = %+v (done=%v)", rec, done)
	}
	if got := s.Lease("w3", 1, t0.Add(time.Hour)); len(got) != 0 {
		t.Errorf("quarantined job was leased again")
	}
	m := s.Close()
	if m.Quarantined != 1 || !reflect.DeepEqual(m.QuarantinedJobs, []string{"test/job-0"}) {
		t.Errorf("manifest quarantined %d %v, want 1 [test/job-0]", m.Quarantined, m.QuarantinedJobs)
	}
	recs, _, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[id]; got.Status != StatusQuarantined || got.Label != "test/job-0" {
		t.Errorf("store record = %+v, want the quarantine record", got)
	}
}

// Lookup tells an ID the sweep was never submitted from one still
// pending.
func TestLookupUnknownID(t *testing.T) {
	s := leaseSweep(t, 1, Options{})
	if _, done, known := s.Lookup("no-such-job"); done || known {
		t.Errorf("unknown ID: done=%v known=%v, want false/false", done, known)
	}
	if _, done, known := s.Lookup(testSpec(0).ID()); done || !known {
		t.Errorf("queued ID: done=%v known=%v, want false/true", done, known)
	}
}

// A manifest that cannot be written counts as a store error, in the
// returned manifest and on the final progress line.
func TestCloseCountsManifestFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(st.ManifestPath(), 0o755); err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	s := New(context.Background(), Options{Workers: 1, Store: st, Progress: WriterProgress(&progress)})
	if _, err := s.Submit(testJob(0, nil)).Wait(); err != nil {
		t.Fatal(err)
	}
	if m := s.Close(); m.StoreErrors != 1 {
		t.Errorf("manifest store errors = %d, want 1", m.StoreErrors)
	}
	if got := progress.String(); !strings.Contains(got, " · 1 store errors") || !strings.HasSuffix(got, " · finished\n") {
		t.Errorf("final progress line %q does not show the store error", got)
	}
}
