// Golden-digest guard for the simulator's bit-identity invariant.
//
// Every registered prefetcher is run at QuickScale, single-core over
// the whole trace subset and 4-core homogeneous, and the JSON-encoded
// Result sets are hashed against testdata/golden_quickscale.json.
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
	"pmp/internal/sim"
	"pmp/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quickscale.json from the current simulator output")

const goldenPath = "testdata/golden_quickscale.json"

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
	got := goldenDigests(t)

	if *updateGolden {
		data, err := json.MarshalIndent(goldenFile{
			Comment: "sha256 of the JSON-encoded QuickScale Result sets; regenerate with -update-golden",
			Digests: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (generate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
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
