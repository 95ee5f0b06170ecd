package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"pmp/internal/sim"
)

// runResult is one simulation job of a pass: a trace or mix run with one
// prefetcher, with a result per core.
type runResult struct {
	base string // the trace or mix, shared by every prefetcher run on it
	pf   string // prefetcher name; bench.NameNone is the baseline
	res  []sim.Result
	err  error // the run panicked or its job was quarantined
}

func (r runResult) key() string { return r.pf + "/" + r.base }

// accountingErrors returns the accounting identities r violates.
func accountingErrors(r sim.Result) []string {
	var errs []string
	for _, lv := range []struct {
		name                 string
		access, hits, misses uint64
	}{
		{"L1D", r.L1D.DemandAccesses, r.L1D.DemandHits, r.L1D.DemandMisses},
		{"L2C", r.L2C.DemandAccesses, r.L2C.DemandHits, r.L2C.DemandMisses},
		{"LLC", r.LLC.DemandAccesses, r.LLC.DemandHits, r.LLC.DemandMisses},
	} {
		if lv.hits+lv.misses != lv.access {
			errs = append(errs, fmt.Sprintf("%s: %d hits + %d misses != %d demand accesses",
				lv.name, lv.hits, lv.misses, lv.access))
		}
	}
	if d := r.DRAM; d.Requests != d.DemandRequests+d.PrefetchRequests {
		errs = append(errs, fmt.Sprintf("DRAM: %d requests != %d demand + %d prefetch",
			d.Requests, d.DemandRequests, d.PrefetchRequests))
	}
	if t := r.TLB; t.L1Misses > t.Accesses || t.L2Misses > t.L1Misses {
		errs = append(errs, fmt.Sprintf("TLB: misses grow outward (%d accesses, %d L1 misses, %d L2 misses)",
			t.Accesses, t.L1Misses, t.L2Misses))
	}
	return errs
}

// digest hashes a run's per-core results; any change to any simulated
// statistic changes it.
func digest(res []sim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal result: %v", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// checker verifies every run of every pass: the accounting identities,
// and a digest identical to the one the first pass gave for the same
// job, whether the pass was traced or not.
type checker struct {
	attempted, failed int
	ref               map[string]string
	errs              []string // the first few failures, for the report
}

func newChecker() *checker { return &checker{ref: map[string]string{}} }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// op records one attempted operation that needs no result check, such
// as the resume pass of the sweep.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *checker) runs(runs []runResult) {
	for _, r := range runs {
		c.attempted++
		if r.err != nil {
			c.fail("%s: %v", r.key(), r.err)
			continue
		}
		var errs []string
		for _, res := range r.res {
			errs = append(errs, accountingErrors(res)...)
		}
		if len(errs) > 0 {
			c.fail("%s: %s", r.key(), errs[0])
			continue
		}
		d := digest(r.res)
		if want, ok := c.ref[r.key()]; !ok {
			c.ref[r.key()] = d
		} else if d != want {
			c.fail("%s: result digest %s differs from the first pass's %s", r.key(), d, want)
		}
	}
}

// nipcGeomean is the geometric mean, over every prefetching run and
// core, of IPC against the baseline run on the same trace or mix.
func nipcGeomean(runs []runResult, baseline string) float64 {
	base := map[string][]sim.Result{}
	for _, r := range runs {
		if r.pf == baseline {
			base[r.base] = r.res
		}
	}
	var sum float64
	n := 0
	for _, r := range runs {
		b, ok := base[r.base]
		if r.pf == baseline || !ok {
			continue
		}
		for i, res := range r.res {
			if ipc := b[i].IPC(); ipc > 0 {
				sum += math.Log(res.IPC() / ipc)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
