package bench

import (
	"context"
	"fmt"

	"pmp/internal/core"
	"pmp/internal/prefetch"
	"pmp/internal/prefetchers/bingo"
	"pmp/internal/runspec"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// variantMaker resolves a variant spec into a constructor, reporting
// unresolvable specs (unknown registry name, malformed spec) as an
// error before any simulation starts. The returned closure builds a
// fresh instance per call — prefetchers hold state and are never
// shared between cores or runs.
func variantMaker(v VariantSpec) (func() prefetch.Prefetcher, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	switch {
	case v.Registry != "":
		known := false
		for _, n := range Names() {
			if v.Registry == n {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("bench: variant %q: unknown registry prefetcher %q", v.Name, v.Registry)
		}
		name := v.Registry
		return func() prefetch.Prefetcher { return NewPrefetcher(name) }, nil
	case v.PMP != nil:
		c := *v.PMP
		return func() prefetch.Prefetcher { return core.New(c) }, nil
	case v.DesignB != nil:
		c := *v.DesignB
		return func() prefetch.Prefetcher { return core.NewDesignB(c) }, nil
	default:
		c := *v.Bingo
		return func() prefetch.Prefetcher { return bingo.New(c) }, nil
	}
}

// BuildVariant constructs the prefetcher a variant spec describes.
func BuildVariant(v VariantSpec) (prefetch.Prefetcher, error) {
	mk, err := variantMaker(v)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// BuildRun materializes a run spec into its executable form: the one
// spec→simulation construction path, shared by serial runs, the local
// pool and remote workers, so a run is assembled identically no matter
// which scheduler executes it. Resolution errors (unknown trace or
// variant, structural problems) surface here, before execution — a
// worker quarantines the job instead of crashing mid-run — while the
// heavy construction (tables, caches, trace generators) is deferred
// into the returned closure, which returns one result per core.
func BuildRun(rs runspec.RunSpec) (func(context.Context) []sim.Result, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	specs := make([]trace.Spec, len(rs.Cores))
	mks := make([]func() prefetch.Prefetcher, len(rs.Cores))
	for i, c := range rs.Cores {
		if c.Trace.File != "" {
			// Wire-shipped external trace: the spec carries the .pmpt
			// path, so the worker needs no manifest.
			specs[i] = trace.FileSpec(trace.ExternalSpec{Name: c.Trace.Name, Path: c.Trace.File})
		} else {
			sp, ok := trace.ByName(c.Trace.Name)
			if !ok {
				return nil, fmt.Errorf("bench: unknown trace spec %q", c.Trace.Name)
			}
			specs[i] = sp
		}
		mk, err := variantMaker(c.Variant)
		if err != nil {
			return nil, fmt.Errorf("bench: core %d: %w", i, err)
		}
		mks[i] = mk
	}
	attach := make([]sim.AttachSpec, len(rs.Placements))
	for i, p := range rs.Placements {
		mk, err := variantMaker(p.Variant)
		if err != nil {
			return nil, fmt.Errorf("bench: placement %d: %w", i, err)
		}
		attach[i] = sim.AttachSpec{Level: p.Level, New: mk}
	}
	cfg, records, replay := rs.Config, rs.Records, rs.Replay
	return func(context.Context) []sim.Result {
		trained := make([]prefetch.Prefetcher, len(mks))
		srcs := make([]trace.Source, len(mks))
		for i := range mks {
			trained[i] = mks[i]()
			srcs[i] = specs[i].New(records)
		}
		return sim.NewMachineAt(cfg, trained, attach, replay).Run(srcs)
	}, nil
}
