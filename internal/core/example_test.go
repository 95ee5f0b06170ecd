package core_test

import (
	"fmt"

	"pmp/internal/core"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Example demonstrates the full PMP flow: train on region patterns,
// then predict for a region it has never seen.
func Example() {
	pmp := core.New(core.DefaultConfig())
	addr := func(region uint64, offset int) mem.Addr {
		return mem.Addr(region*mem.PageBytes + uint64(offset)*mem.LineBytes)
	}

	// A loop touches offsets 0..3 of many 4KB regions.
	for region := uint64(0); region < 24; region++ {
		for off := 0; off < 4; off++ {
			pmp.Train(prefetch.Access{PC: 0x400, Addr: addr(region, off)})
			pmp.IssueInto(nil, 64)
		}
		pmp.OnEvict(addr(region, 0)) // eviction closes the region pattern
	}

	// A single trigger access to a fresh region predicts the rest.
	pmp.Train(prefetch.Access{PC: 0x400, Addr: addr(999, 0)})
	for _, r := range pmp.IssueInto(nil, 64) {
		fmt.Printf("prefetch offset %d -> %v\n", r.Addr.PageOffset(), r.Level)
	}
	// Output:
	// prefetch offset 1 -> L2C
	// prefetch offset 2 -> L1D
	// prefetch offset 3 -> L1D
}

// ExampleConfig_Storage reproduces the paper's Table III accounting.
func ExampleConfig_Storage() {
	s := core.DefaultConfig().Storage()
	fmt.Printf("filter table        %4d B\n", s.FilterTableBits/8)
	fmt.Printf("accumulation table  %4d B\n", s.AccumTableBits/8)
	fmt.Printf("offset pattern tbl  %4d B\n", s.OPTBits/8)
	fmt.Printf("pc pattern table    %4d B\n", s.PPTBits/8)
	fmt.Printf("prefetch buffer     %4d B\n", s.PrefetchBufBits/8)
	fmt.Printf("total               %.1f KB\n", s.TotalBytes()/1024)
	// Output:
	// filter table         376 B
	// accumulation table   456 B
	// offset pattern tbl  2560 B
	// pc pattern table     640 B
	// prefetch buffer      332 B
	// total               4.3 KB
}
