// Quickstart: build a PMP prefetcher, train it on a handful of spatial
// patterns, and watch it predict — no simulator involved.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func main() {
	// PMP with the paper's default configuration: 4KB regions, dual
	// pattern tables, AFE extraction, ~4.3KB of state.
	cfg := core.DefaultConfig()
	pmp := core.New(cfg)
	fmt.Printf("PMP configured: %.1f KB of state (paper Table III: ~4.3 KB)\n\n",
		cfg.Storage().TotalBytes()/1024)

	// Teach it a pattern: a loop that touches offsets +1, +2 and +3
	// after entering each 4KB region at offset 0.
	pc := uint64(0x400100)
	addr := func(region uint64, offset int) mem.Addr {
		return mem.Addr(region*mem.PageBytes + uint64(offset)*mem.LineBytes)
	}
	for region := uint64(0); region < 24; region++ {
		for _, off := range []int{0, 1, 2, 3} {
			pmp.Train(prefetch.Access{PC: pc, Addr: addr(region, off)})
			pmp.IssueInto(nil, 64) // drain any in-training predictions
		}
		// A line of the region leaves the L1: accumulation closes and
		// the pattern is merged into the counter-vector tables.
		pmp.OnEvict(addr(region, 0))
	}
	fmt.Printf("trained on %d region patterns\n", pmp.Stats().PatternsMerged)

	// Now touch a region PMP has never seen. The trigger access alone
	// is enough: the merged pattern predicts the rest of the region.
	fresh := uint64(1_000_000)
	pmp.Train(prefetch.Access{PC: pc, Addr: addr(fresh, 0)})
	fmt.Printf("\ntrigger access at region %d, offset 0 -> prefetches:\n", fresh)
	for _, r := range pmp.IssueInto(nil, 64) {
		fmt.Printf("  line %#x (region offset %2d) -> %s\n",
			uint64(r.Addr), r.Addr.PageOffset(), r.Level)
	}
	fmt.Println("\nNote: offset 1 fills L2C, not L1D — it shares the PC Pattern")
	fmt.Println("Table's coarse group 0 with the trigger, so arbitration rule 3")
	fmt.Println("downgrades it (paper Fig 6e).")
}
