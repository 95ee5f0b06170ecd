package trace

import (
	"fmt"
	"slices"
	"sync"
)

// Family labels a benchmark family from the paper's Table VI.
type Family string

// The four trace families evaluated in the paper.
const (
	SPEC06 Family = "spec06"
	SPEC17 Family = "spec17"
	Ligra  Family = "ligra"
	PARSEC Family = "parsec"
)

// MPKIClass is the paper's Table VII workload classification.
type MPKIClass string

// MPKI classes used to build heterogeneous 4-core mixes.
const (
	LowMPKI    MPKIClass = "low"    // 5 < MPKI <= 10
	MediumMPKI MPKIClass = "medium" // 10 < MPKI <= 20
	HighMPKI   MPKIClass = "high"   // MPKI > 20
)

// Spec describes one suite trace: how to construct its generator.
type Spec struct {
	Name   string
	Family Family
	Class  MPKIClass
	// New constructs the generator with the given record count.
	New func(length int) Source
	// File is the backing .pmpt path for external (manifest) traces and
	// empty for synthetic generators. It travels in distributed job
	// specs so remote workers open the file directly instead of needing
	// the manifest (see bench.BuildRun).
	File string
}

// kind identifies a generator archetype inside a family.
type kind int

const (
	kStream kind = iota
	kStride
	kBackward
	kGraph
	kChase
	kMixed
)

func (k kind) String() string {
	return [...]string{"stream", "stride", "mcf", "graph", "chase", "mix"}[k]
}

// class assignment per kind: streams and strides miss moderately,
// backward walks and graph traversals miss heavily, mixed in between.
func classOf(k kind, variant int) MPKIClass {
	switch k {
	case kStream, kStride:
		if variant%2 == 0 {
			return LowMPKI
		}
		return MediumMPKI
	case kBackward, kGraph, kChase:
		if variant%3 == 0 {
			return MediumMPKI
		}
		return HighMPKI
	default:
		return MediumMPKI
	}
}

func makeSpec(fam Family, k kind, variant int) Spec {
	name := fmt.Sprintf("%s.%s-%d", fam, k, variant)
	seed := int64(1e6)*int64(k+1) + int64(variant)*7919
	var mk func(length int) Source
	switch k {
	case kStream:
		mk = func(n int) Source {
			p := DefaultStreamParams()
			p.Streams = 2 + variant%4
			p.WorkingSet = uint64(16+16*(variant%4)) << 20
			return NewStream(name, seed, n, p)
		}
	case kStride:
		mk = func(n int) Source {
			p := DefaultStrideParams()
			p.Strides = [][]int{{2, 3, 4}, {2, 5}, {3, 7}, {4}}[variant%4]
			p.Walkers = 2 + variant%3
			return NewStride(name, seed, n, p)
		}
	case kBackward:
		mk = func(n int) Source {
			p := DefaultBackwardParams()
			p.LocalProb = []float64{0.25, 0.35, 0.45}[variant%3]
			return NewBackward(name, seed, n, p)
		}
	case kGraph:
		mk = func(n int) Source {
			p := DefaultGraphParams()
			p.RandomProb = []float64{0.12, 0.2, 0.3}[variant%3]
			p.MaxDegree = []int{32, 48, 64}[variant%3]
			return NewGraph(name, seed, n, p)
		}
	case kChase:
		mk = func(n int) Source {
			p := DefaultPointerChaseParams()
			p.HotProb = []float64{0.4, 0.5, 0.6}[variant%3]
			return NewPointerChase(name, seed, n, p)
		}
	default:
		mk = func(n int) Source {
			p := DefaultMixedParams()
			p.PhaseLen = []int{4096, 8192, 16384}[variant%3]
			return NewMixed(name, seed, n, p)
		}
	}
	return Spec{Name: name, Family: fam, Class: classOf(k, variant), New: mk}
}

// Suite returns the full 125-trace suite with the paper's Table VI
// family counts: 38 SPEC06, 36 SPEC17, 42 Ligra, 9 PARSEC. Within the
// SPEC families the archetypes rotate among streaming, strided, MCF-like
// backward and pointer-chase workloads; Ligra traces are graph
// traversals; PARSEC traces are phase mixes.
func Suite() []Spec { return slices.Clone(suite()) }

// suite builds the suite once; Suite hands out copies of it, and
// Representative and ByName only read it.
var suite = sync.OnceValue(func() []Spec {
	var specs []Spec
	spec06Kinds := []kind{kStream, kStride, kBackward, kChase}
	for i := 0; i < 38; i++ {
		specs = append(specs, makeSpec(SPEC06, spec06Kinds[i%len(spec06Kinds)], i))
	}
	spec17Kinds := []kind{kStream, kStride, kBackward, kMixed}
	for i := 0; i < 36; i++ {
		specs = append(specs, makeSpec(SPEC17, spec17Kinds[i%len(spec17Kinds)], 100+i))
	}
	for i := 0; i < 42; i++ {
		specs = append(specs, makeSpec(Ligra, kGraph, 200+i))
	}
	for i := 0; i < 9; i++ {
		specs = append(specs, makeSpec(PARSEC, kMixed, 300+i))
	}
	return specs
})

// builtin indexes the suite by name, built on first use.
var builtin = sync.OnceValue(func() map[string]Spec {
	idx := map[string]Spec{}
	for _, sp := range suite() {
		idx[sp.Name] = sp
	}
	return idx
})

// ByName resolves a built-in trace by name: one of the 125 Suite
// traces. External traces are not built in; they travel as files
// (Spec.File).
func ByName(name string) (Spec, bool) {
	sp, ok := builtin()[name]
	return sp, ok
}

// Representative returns a reduced, family-balanced subset of the suite
// for quick experiments: at most n specs (n >= 4). Each family's quota
// is its share of n, floored, and at least one, so Representative(16)
// returns 14 specs.
func Representative(n int) []Spec {
	all := suite()
	if n >= len(all) {
		return Suite()
	}
	if n < 4 {
		n = 4
	}
	// Pick evenly from each family, proportional to family size.
	byFam := map[Family][]Spec{}
	order := []Family{SPEC06, SPEC17, Ligra, PARSEC}
	for _, s := range all {
		byFam[s.Family] = append(byFam[s.Family], s)
	}
	var out []Spec
	quota := map[Family]int{}
	for _, f := range order {
		q := n * len(byFam[f]) / len(all)
		if q < 1 {
			q = 1
		}
		quota[f] = q
	}
	for _, f := range order {
		fam := byFam[f]
		q := quota[f]
		if len(out)+q > n {
			q = n - len(out)
		}
		step := len(fam) / q
		if step < 1 {
			step = 1
		}
		// SPEC families rotate archetypes with period 4; avoid a stride
		// that aliases onto a single archetype.
		if step > 1 && step%4 == 0 {
			step++
		}
		for i := 0; i < q && i*step < len(fam); i++ {
			out = append(out, fam[i*step])
		}
	}
	return out
}

// ByClass partitions specs by MPKI class.
func ByClass(specs []Spec) map[MPKIClass][]Spec {
	out := map[MPKIClass][]Spec{}
	for _, s := range specs {
		out[s.Class] = append(out[s.Class], s)
	}
	return out
}
