// Golden-digest guards for the simulator's bit-identity invariant.
//
// Every registered prefetcher is run at QuickScale, single-core over
// the whole trace subset and 4-core homogeneous, and the JSON-encoded
// Result sets are hashed against testdata/golden_quickscale.json;
// TestGoldenLifecycleDigests adds traced runs against
// testdata/golden_lifecycle.json.
// Refactors of the simulator (hierarchy, run loop, issue paths) must
// keep these digests stable; regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenQuickScale -update-golden
//
// after any change that intentionally alters simulated behaviour.
package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"sync"
	"testing"

	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata golden digest files from the current simulator output")

const (
	goldenPath          = "testdata/golden_quickscale.json"
	goldenLifecyclePath = "testdata/golden_lifecycle.json"
)

// goldenFile is the committed digest set: one sha256 per (mode,
// prefetcher) Result slice, keyed "1core/<name>" and "4core/<name>".
type goldenFile struct {
	Comment string            `json:"comment"`
	Digests map[string]string `json:"digests"`
}

func digest(t *testing.T, results []sim.Result) string {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// goldenDigests simulates the full QuickScale set and returns its
// digest map. Prefetchers run concurrently; each simulation itself is
// single-threaded and deterministic.
func goldenDigests(t *testing.T) map[string]string {
	scale := bench.QuickScale()
	cfg := scale.Config()
	// The 4-core runs use the paper's multicore setup (two DRAM
	// channels) on the first four suite traces.
	mcfg := cfg
	mcfg.DRAM.Channels = 2
	specs := scale.Specs()
	if len(specs) < 4 {
		t.Fatalf("QuickScale has %d traces, need >= 4", len(specs))
	}

	digests := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range bench.Names() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()

			single := make([]sim.Result, 0, len(specs))
			for _, sp := range specs {
				pf := []prefetch.Prefetcher{bench.NewPrefetcher(name)}
				src := []trace.Source{sp.New(scale.Records)}
				single = append(single, sim.NewMachineAt(cfg, pf, nil, false).Run(src)[0])
			}

			pfs := make([]prefetch.Prefetcher, 4)
			srcs := make([]trace.Source, 4)
			for i := range pfs {
				pfs[i] = bench.NewPrefetcher(name)
				srcs[i] = specs[i].New(scale.Records)
			}
			multi := sim.NewMachineAt(mcfg, pfs, nil, true).Run(srcs)

			mu.Lock()
			digests["1core/"+name] = digest(t, single)
			digests["4core/"+name] = digest(t, multi)
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	return digests
}

func TestGoldenQuickScaleDigests(t *testing.T) {
	checkGolden(t, goldenPath, "sha256 of the JSON-encoded QuickScale Result sets; regenerate with -update-golden", goldenDigests(t))
}

// TestGoldenLifecycleDigests pins the prefetch-event path from the
// caches to the lifecycle trackers and the prefetchers' OnFill, which
// the QuickScale digests only see through its effect on timing: every
// registered prefetcher runs traced, 1-core with the original Bingo
// attached at the LLC and 4-core with trace replay, and each digest
// covers every LifecycleEvent the sink receives plus the Results.
// Regenerate with
//
//	go test ./internal/sim -run TestGoldenLifecycle -update-golden
func TestGoldenLifecycleDigests(t *testing.T) {
	scale := bench.QuickScale()
	cfg := scale.Config()
	mcfg := cfg
	mcfg.DRAM.Channels = 2
	specs := scale.Specs()
	if len(specs) < 4 {
		t.Fatalf("QuickScale has %d traces, need >= 4", len(specs))
	}
	llcBingo := []sim.AttachSpec{{Level: cfg.HierarchyDepth() - 1, New: func() prefetch.Prefetcher {
		return bingo.New(*bench.BingoLLCVariant().Bingo)
	}}}

	// traced runs m over srcs and digests the event stream and results.
	traced := func(m *sim.Machine, srcs []trace.Source) string {
		h := sha256.New()
		enc := json.NewEncoder(h)
		m.EnableLifecycleTracing(func(ev sim.LifecycleEvent) {
			if err := enc.Encode(ev); err != nil {
				t.Errorf("encode event: %v", err)
			}
		})
		if err := enc.Encode(m.Run(srcs)); err != nil {
			t.Errorf("encode results: %v", err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	digests := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range bench.Names() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			got := map[string]string{}
			for _, sp := range []trace.Spec{specs[0], specs[len(specs)-1]} {
				m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{bench.NewPrefetcher(name)}, llcBingo, false)
				got["1core/"+name+"/"+sp.Name] = traced(m, []trace.Source{sp.New(scale.Records)})
			}
			pfs := make([]prefetch.Prefetcher, 4)
			srcs := make([]trace.Source, 4)
			for i := range pfs {
				pfs[i] = bench.NewPrefetcher(name)
				srcs[i] = specs[i].New(scale.Records)
			}
			got["4core/"+name] = traced(sim.NewMachineAt(mcfg, pfs, nil, true), srcs)

			mu.Lock()
			for k, v := range got {
				digests[k] = v
			}
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	checkGolden(t, goldenLifecyclePath, "sha256 of the JSON-encoded LifecycleEvent stream plus Results of traced runs; regenerate with -update-golden", digests)
}

// checkGolden compares got against the digest file at path, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, path, comment string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(goldenFile{Comment: comment, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (generate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want.Digests[k]
		if !ok {
			t.Errorf("%s: no golden digest recorded (run -update-golden)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: digest %s != golden %s — simulator output changed", k, got[k], w)
		}
	}
	for k := range want.Digests {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden digest has no current run (lineup changed?)", k)
		}
	}
}
