// Package tlb models the two-level data TLB of the paper's Table IV
// configuration (64-entry DTLB, 1536-entry shared L2 TLB, 4KB pages).
// Misses in the DTLB that hit the L2 TLB pay a small fixed penalty;
// L2 TLB misses pay a page-walk penalty. Translation is identity
// (virtually-indexed simulation), so the TLB only contributes latency
// — which is exactly its role in prefetcher evaluation: address
// translation overhead scales with the footprint of the access stream,
// not with prefetching, so normalized IPC comparisons remain fair
// while absolute IPC gains realism.
package tlb

import (
	"fmt"

	"pmp/internal/mem"
)

// Config describes a two-level TLB.
type Config struct {
	L1Entries int    // DTLB entries (fully associative model)
	L2Entries int    // shared second-level TLB entries
	L2Latency uint64 // penalty for a DTLB miss that hits the L2 TLB
	WalkCost  uint64 // penalty for an L2 TLB miss (page walk)
}

// DefaultConfig returns the paper's Table IV TLB geometry.
func DefaultConfig() Config {
	return Config{
		L1Entries: 64,
		L2Entries: 1536,
		L2Latency: 8,
		WalkCost:  60,
	}
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.L1Entries <= 0 || c.L2Entries <= 0 {
		return fmt.Errorf("tlb: entries must be positive (%d, %d)", c.L1Entries, c.L2Entries)
	}
	if c.L1Entries > c.L2Entries {
		return fmt.Errorf("tlb: L1 (%d) larger than L2 (%d)", c.L1Entries, c.L2Entries)
	}
	return nil
}

// Stats counts translation outcomes.
type Stats struct {
	Accesses uint64
	L1Misses uint64
	L2Misses uint64 // page walks
}

// level is one fully-associative-by-hash TLB level: a direct-mapped
// tag array sized to the entry count, which models conflict behaviour
// adequately at simulation granularity.
type level struct {
	tags []uint64
	mask uint64
}

func newLevel(entries int) *level {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := &level{tags: make([]uint64, n), mask: uint64(n - 1)}
	for i := range t.tags {
		t.tags[i] = ^uint64(0)
	}
	return t
}

func (l *level) lookup(page uint64) bool {
	return l.tags[mem.Mix64(page)&l.mask] == page
}

func (l *level) insert(page uint64) {
	l.tags[mem.Mix64(page)&l.mask] = page
}

// TLB is the two-level structure. Construct with New.
type TLB struct {
	cfg    Config
	l1, l2 *level
	stats  Stats
}

// New constructs a TLB; it panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{cfg: cfg, l1: newLevel(cfg.L1Entries), l2: newLevel(cfg.L2Entries)}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Translate looks up the page of addr and returns the translation
// latency to add to the access: 0 on a DTLB hit, L2Latency on an L2
// hit, L2Latency+WalkCost on a page walk. Both levels are filled on
// the way out.
func (t *TLB) Translate(addr mem.Addr) uint64 {
	page := addr.PageID()
	t.stats.Accesses++
	if t.l1.lookup(page) {
		return 0
	}
	t.stats.L1Misses++
	if t.l2.lookup(page) {
		t.l1.insert(page)
		return t.cfg.L2Latency
	}
	t.stats.L2Misses++
	t.l2.insert(page)
	t.l1.insert(page)
	return t.cfg.L2Latency + t.cfg.WalkCost
}
