package sim

import "pmp/internal/prefetch"

// HierarchyDepth returns the number of cache levels the configuration
// resolves to (explicit Levels, or the classic 3-level fallback).
// Run-spec validation uses it to bound placement levels without
// constructing a machine.
func (c Config) HierarchyDepth() int { return len(c.Resolved().Levels) }

// AttachSpec places an extra prefetcher at one cache level of every
// core: Level indexes the hierarchy (1 = the level below L1D,
// HierarchyDepth-1 = the outermost), and New constructs a fresh
// instance per core — attached prefetchers hold state and must never
// be shared between cores.
type AttachSpec struct {
	Level int
	New   func() prefetch.Prefetcher
}

// NewMachineAt builds a Machine with one trained (level-0) prefetcher
// per core plus the given per-level attachments; it panics on invalid
// configuration or an attach level outside [1, HierarchyDepth-1]. Pass
// prefetch.Nop{} entries for non-prefetching cores.
//
// An attached prefetcher observes the demand accesses that reach its
// level (with the PC of the originating load), fills that level only,
// and is notified of the level's evictions. replay selects
// multi-programmed-mix semantics: a trace that ends before its core's
// measurement window does is replayed from the start (see Run);
// single-trace runs pass false so they end with their trace.
//
// It is the only way to build a Machine: the CLIs, the examples,
// serial runs, the local pool and remote workers all go through it, so
// a run is assembled identically no matter which scheduler executes it.
func NewMachineAt(cfg Config, trained []prefetch.Prefetcher, attach []AttachSpec, replay bool) *Machine {
	m := newMachine(cfg, trained)
	for _, a := range attach {
		for i := 0; i < m.NumCores(); i++ {
			m.Core(i).attachPrefetcher(a.Level, a.New())
		}
	}
	m.replay = replay
	return m
}
