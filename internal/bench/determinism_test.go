package bench

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pmp/internal/sim"
	"pmp/internal/sweep"
)

// TestSuiteDeterministicAcrossWorkerCounts is the sweep's core
// invariant: the same (trace, prefetcher, config, scale) job yields a
// bit-identical sim.Result whether the pool runs one worker or many —
// scheduling must never leak into simulation results (it is what keeps
// rendered tables byte-identical to the old serial harness).
func TestSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	scale := tinyScale()
	cfg := scale.Config()

	serial := sweep.New(context.Background(), sweep.Options{Workers: 1})
	parallel := sweep.New(context.Background(), sweep.Options{Workers: max(4, runtime.NumCPU())})
	defer serial.Close()
	defer parallel.Close()

	r1 := NewRunnerWith(scale, serial)
	rn := NewRunnerWith(scale, parallel)

	for _, name := range []string{NamePMP, NameStride} {
		a := r1.Run(name, cfg)
		b := rn.Run(name, cfg)
		if !reflect.DeepEqual(a.Results, b.Results) {
			t.Errorf("%s: results differ between 1 worker and %d workers", name, runtime.NumCPU())
		}
		if !reflect.DeepEqual(a.Baseline, b.Baseline) {
			t.Errorf("%s: baselines differ between worker counts", name)
		}
	}
}

// TestResumeMatchesFresh verifies the persistence half of the
// determinism contract: results served from a resumed store are
// bit-identical to freshly executed ones, and a resumed run executes
// nothing that already completed.
func TestResumeMatchesFresh(t *testing.T) {
	scale := tinyScale()
	cfg := scale.Config()
	path := filepath.Join(t.TempDir(), "results.jsonl")

	st, err := sweep.OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sw := sweep.New(context.Background(), sweep.Options{Store: st})
	fresh := NewRunnerWith(scale, sw).Run(NamePMP, cfg)
	m := sw.Close()
	if m.Completed == 0 || m.Cached != 0 {
		t.Fatalf("fresh run completed/cached = %d/%d", m.Completed, m.Cached)
	}

	st2, err := sweep.OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	sw2 := sweep.New(context.Background(), sweep.Options{Store: st2})
	resumed := NewRunnerWith(scale, sw2).Run(NamePMP, cfg)
	m2 := sw2.Close()

	if m2.Completed != 0 {
		t.Errorf("resumed run re-executed %d jobs; all %d should come from the store",
			m2.Completed, m.Completed)
	}
	if m2.Cached != m.Completed {
		t.Errorf("resumed run cached %d jobs, want %d", m2.Cached, m.Completed)
	}
	if !reflect.DeepEqual(fresh.Results, resumed.Results) {
		t.Error("resumed results differ from fresh execution")
	}
	if !reflect.DeepEqual(fresh.Baseline, resumed.Baseline) {
		t.Error("resumed baselines differ from fresh execution (baselines must persist too)")
	}
}

// TestBaselineDedupUnderConcurrency hammers Baseline from many
// goroutines (the pmpexperiments driver runs every experiment
// concurrently against one Runner) on a private sweep. Callers get
// equal results within a config and distinct ones across configs, and
// the sweep's dedup table simulates each baseline suite exactly once
// per config. Run with -race this also guards the submission path.
func TestBaselineDedupUnderConcurrency(t *testing.T) {
	scale := tinyScale()
	sw := sweep.New(context.Background(), sweep.Options{Workers: 2})
	defer sw.Close()
	r := NewRunnerWith(scale, sw)
	cfgs := []sim.Config{scale.Config(), scale.Config().WithBandwidth(800)}

	const callers = 8
	got := make([][2][]sim.Result, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c, cfg := range cfgs {
				got[i][c] = r.Baseline(cfg)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("caller %d received different baselines from caller 0", i)
		}
	}
	if reflect.DeepEqual(got[0][0], got[0][1]) {
		t.Error("different configs must have distinct baselines")
	}
	if n, want := sw.Snapshot().Completed, 2*len(r.Specs()); n != want {
		t.Errorf("sweep simulated %d jobs, want %d: one per trace per config", n, want)
	}
}
