package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmp/internal/runspec"
	"pmp/internal/sim"
)

// testSpec is a one-core run spec on trace job-<i>, labeled
// test/job-<i>. Nothing builds it: test jobs carry their own Run.
func testSpec(i int) runspec.RunSpec {
	return runspec.RunSpec{
		Cores: []runspec.CoreSpec{{
			Trace:   runspec.TraceRef{Name: fmt.Sprintf("job-%d", i)},
			Variant: runspec.VariantSpec{Name: "test", Registry: "test"},
		}},
		Records: 1,
	}
}

// testJob builds a trivial one-core job whose Result encodes its
// identity, so tests can verify which job produced which record.
func testJob(i int, body func(context.Context) sim.Result) Job {
	if body == nil {
		body = func(context.Context) sim.Result {
			return sim.Result{Trace: fmt.Sprintf("job-%d", i), Instructions: uint64(i), Cycles: 1}
		}
	}
	run := func(ctx context.Context) []sim.Result { return []sim.Result{body(ctx)} }
	return Job{Spec: testSpec(i), Run: run}
}

func TestSubmitDeduplicatesByID(t *testing.T) {
	var runs atomic.Int32
	s := New(context.Background(), Options{Workers: 2})
	job := testJob(1, func(context.Context) sim.Result {
		runs.Add(1)
		return sim.Result{Cycles: 1}
	})
	t1 := s.Submit(job)
	t2 := s.Submit(job)
	if t1 != t2 {
		t.Error("same ID should return the same ticket")
	}
	if _, err := t1.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	m := s.Close()
	if got := runs.Load(); got != 1 {
		t.Errorf("job ran %d times, want 1", got)
	}
	if m.Submitted != 1 || m.Deduped != 1 {
		t.Errorf("manifest submitted/deduped = %d/%d, want 1/1", m.Submitted, m.Deduped)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	var cur, max atomic.Int32
	var mu sync.Mutex
	s := New(context.Background(), Options{Workers: workers})
	var tickets []*Ticket
	for i := 0; i < 10; i++ {
		tickets = append(tickets, s.Submit(testJob(i, func(context.Context) sim.Result {
			n := cur.Add(1)
			mu.Lock()
			if n > max.Load() {
				max.Store(n)
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return sim.Result{Cycles: 1}
		})))
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	s.Close()
	if got := max.Load(); got > workers {
		t.Errorf("observed %d concurrent jobs, pool bound is %d", got, workers)
	}
}

func TestPanickingJobIsQuarantinedRestCompletes(t *testing.T) {
	s := New(context.Background(), Options{Workers: 2, MaxAttempts: 2})
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		j := testJob(i, nil)
		if i == 3 {
			j.Run = func(context.Context) []sim.Result { panic("poisoned job") }
		}
		tickets = append(tickets, s.Submit(j))
	}
	for i, tk := range tickets {
		rec, err := tk.Wait()
		if err != nil {
			t.Fatalf("job %d: unexpected error %v", i, err)
		}
		if i == 3 {
			if rec.Status != StatusQuarantined {
				t.Errorf("poisoned job status = %q, want %q", rec.Status, StatusQuarantined)
			}
			if rec.Attempts != 2 {
				t.Errorf("poisoned job attempts = %d, want 2 (bounded retry)", rec.Attempts)
			}
			if rec.Err == "" {
				t.Error("quarantined record should carry the panic message")
			}
			continue
		}
		if rec.Status != StatusOK {
			t.Errorf("job %d status = %q, want ok", i, rec.Status)
		}
		if rec.Result.Instructions != uint64(i) {
			t.Errorf("job %d result mismatch: %d", i, rec.Result.Instructions)
		}
	}
	m := s.Close()
	if m.Quarantined != 1 || m.Completed != 7 {
		t.Errorf("manifest quarantined/completed = %d/%d, want 1/7", m.Quarantined, m.Completed)
	}
	if len(m.QuarantinedJobs) != 1 || m.QuarantinedJobs[0] != "test/job-3" {
		t.Errorf("manifest quarantined jobs = %v, want [test/job-3]", m.QuarantinedJobs)
	}
}

func TestTimedOutJobIsQuarantined(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := New(context.Background(), Options{Workers: 1, MaxAttempts: 2, JobTimeout: 20 * time.Millisecond})
	slow := s.Submit(testJob(0, func(ctx context.Context) sim.Result {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return sim.Result{Cycles: 1}
	}))
	fast := s.Submit(testJob(1, nil))
	rec, err := slow.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if rec.Status != StatusQuarantined {
		t.Errorf("timed-out job status = %q, want quarantined", rec.Status)
	}
	if rec.Attempts != 2 {
		t.Errorf("timed-out job attempts = %d, want 2", rec.Attempts)
	}
	if rec, err := fast.Wait(); err != nil || rec.Status != StatusOK {
		t.Errorf("job behind the stuck one should still complete: %v %q", err, rec.Status)
	}
	s.Close()
}

func TestCancelResolvesPendingTickets(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	s := New(ctx, Options{Workers: 1})
	running := make(chan struct{})
	var once sync.Once
	first := s.Submit(testJob(0, func(context.Context) sim.Result {
		once.Do(func() { close(running) })
		<-release
		return sim.Result{Cycles: 1}
	}))
	var rest []*Ticket
	for i := 1; i < 5; i++ {
		rest = append(rest, s.Submit(testJob(i, nil)))
	}
	<-running
	cancel()
	for i, tk := range rest {
		if _, err := tk.Wait(); err == nil {
			t.Errorf("queued job %d should resolve with a cancellation error", i+1)
		}
	}
	// The in-flight job is abandoned with a cancellation error too.
	if _, err := first.Wait(); err == nil {
		t.Error("in-flight job should resolve canceled")
	}
	close(release)
	m := s.Close()
	if m.Canceled == 0 {
		t.Errorf("manifest should count canceled jobs, got %+v", m)
	}
	// New submissions after cancellation resolve immediately.
	if _, err := s.Submit(testJob(99, nil)).Wait(); err == nil {
		t.Error("submission after cancel should resolve with an error")
	}
}

func TestStoreBackedSweepPersistsAndResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")

	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	mk := func(i int) Job {
		return testJob(i, func(context.Context) sim.Result {
			runs.Add(1)
			return sim.Result{Trace: fmt.Sprintf("job-%d", i), Instructions: uint64(i), Cycles: 1}
		})
	}
	s := New(context.Background(), Options{Workers: 2, Store: st})
	var first []Record
	for i := 0; i < 5; i++ {
		rec, err := s.Submit(mk(i)).Wait()
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, rec)
	}
	m := s.Close()
	if m.Completed != 5 || m.Cached != 0 {
		t.Fatalf("first run completed/cached = %d/%d, want 5/0", m.Completed, m.Cached)
	}

	// Resume: the same five jobs are served from the store; two new
	// ones execute.
	st2, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Loaded() != 5 {
		t.Fatalf("resume loaded %d records, want 5", st2.Loaded())
	}
	runs.Store(0)
	s2 := New(context.Background(), Options{Workers: 2, Store: st2})
	for i := 0; i < 7; i++ {
		tk := s2.Submit(mk(i))
		rec, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if i < 5 {
			if !tk.Cached() {
				t.Errorf("job %d should be served from the store", i)
			}
			if !reflect.DeepEqual(rec.Result, first[i].Result) {
				t.Errorf("job %d cached result differs from original", i)
			}
		} else if tk.Cached() {
			t.Errorf("new job %d cannot be cached", i)
		}
	}
	m2 := s2.Close()
	if runs.Load() != 2 {
		t.Errorf("resume executed %d jobs, want 2", runs.Load())
	}
	if m2.Cached != 5 || m2.Completed != 2 {
		t.Errorf("resume manifest cached/completed = %d/%d, want 5/2", m2.Cached, m2.Completed)
	}

	// The store now holds all seven records.
	st3, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Len() != 7 {
		t.Errorf("final store holds %d records, want 7", st3.Len())
	}
	st3.Close()
}

func TestQuarantinedRecordIsRetriedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, _ := OpenStore(path, false)
	s := New(context.Background(), Options{Workers: 1, MaxAttempts: 1, Store: st})
	rec, err := s.Submit(testJob(0, func(context.Context) sim.Result { panic("flaky") })).Wait()
	if err != nil || rec.Status != StatusQuarantined {
		t.Fatalf("setup: %v %q", err, rec.Status)
	}
	s.Close()

	st2, _ := OpenStore(path, true)
	s2 := New(context.Background(), Options{Workers: 1, Store: st2})
	rec, err = s2.Submit(testJob(0, nil)).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusOK {
		t.Errorf("quarantined job should be re-run on resume, got %q", rec.Status)
	}
	s2.Close()

	// Last record per ID wins: a fresh resume now sees the OK result.
	st3, _ := OpenStore(path, true)
	if rec, ok := st3.Lookup("job-unknown"); ok {
		t.Fatalf("unexpected record %+v", rec)
	}
	got, ok := st3.Lookup(testSpec(0).ID())
	if !ok || got.Status != StatusOK {
		t.Errorf("store should serve the OK record after retry, got %+v (ok=%v)", got, ok)
	}
	st3.Close()
}

func TestManifestWrittenNextToStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	st, _ := OpenStore(path, false)
	s := New(context.Background(), Options{Workers: 1, Store: st})
	s.Submit(testJob(0, nil)).Wait()
	m := s.Close()
	if m.Store != path {
		t.Errorf("manifest store = %q, want %q", m.Store, path)
	}
	want := filepath.Join(filepath.Dir(path), "run.manifest.json")
	if got := st.ManifestPath(); got != want {
		t.Errorf("manifest path = %q, want %q", got, want)
	}
	b, err := os.ReadFile(st.ManifestPath())
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if got.Completed != 1 || got.Workers != 1 {
		t.Errorf("manifest completed/workers = %d/%d, want 1/1", got.Completed, got.Workers)
	}
}

// The store keeps a one-core job's result under "result" and a
// multicore job's under "results", and Runs reads either form back,
// including the zero result of a quarantined record.
func TestRecordLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(context.Background(), Options{Workers: 1, MaxAttempts: 1, Store: st})
	four := testJob(4, nil)
	four.Run = func(context.Context) []sim.Result {
		res := make([]sim.Result, 4)
		for i := range res {
			res[i] = sim.Result{Instructions: uint64(i + 1), Cycles: 1}
		}
		return res
	}
	bad := testJob(9, func(context.Context) sim.Result { panic("poisoned job") })
	for _, j := range []Job{testJob(1, nil), four, bad} {
		if _, err := s.Submit(j).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("store has %d lines, want 3", len(lines))
	}
	var one, multi map[string]json.RawMessage
	if err := json.Unmarshal(lines[0], &one); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &multi); err != nil {
		t.Fatal(err)
	}
	if _, ok := one["result"]; !ok {
		t.Errorf("one-result line has no result key: %s", lines[0])
	}
	if _, ok := one["results"]; ok {
		t.Errorf("one-result line has a results key: %s", lines[0])
	}
	var perCore []sim.Result
	var zero sim.Result
	if err := json.Unmarshal(multi["results"], &perCore); err != nil || len(perCore) != 4 {
		t.Errorf("four-result line holds %d results (%v), want 4: %s", len(perCore), err, lines[1])
	}
	if err := json.Unmarshal(multi["result"], &zero); err != nil || !reflect.DeepEqual(zero, sim.Result{}) {
		t.Errorf("four-result line has a non-zero result (%v): %s", err, lines[1])
	}

	recs, _, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[testSpec(1).ID()].Runs(); len(got) != 1 || got[0].Instructions != 1 {
		t.Errorf("one-core Runs = %+v, want the one result", got)
	}
	if got := recs[testSpec(4).ID()].Runs(); len(got) != 4 || got[3].Instructions != 4 {
		t.Errorf("four-core Runs = %+v, want the four results in order", got)
	}
	q := recs[testSpec(9).ID()]
	if got := q.Runs(); q.Status != StatusQuarantined || len(got) != 1 || !reflect.DeepEqual(got[0], sim.Result{}) {
		t.Errorf("quarantined record (%s) Runs = %+v, want one zero result", q.Status, got)
	}
}
