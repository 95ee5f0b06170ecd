package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pmp/internal/trace"
)

// DefaultSeed reproduces the paper's subsets exactly: the DefaultScale
// trace.Representative traces (14 of the 125-trace suite) and Fig 13's
// four homogeneous and six heterogeneous 4-core mixes.
const DefaultSeed = 0

// HeldOutSeed is kept out of tuning: a later performance claim made on
// the default seed must also hold on this one.
const HeldOutSeed = 91776

// paramPeriod is the variant period after which every synthetic
// generator repeats its parameters (they depend on the variant mod 4 or
// mod 3; see trace.Suite).
const paramPeriod = 12

// traceClass is the key under which suite traces are interchangeable
// for the benchmark: same family, same generator archetype and the same
// parameters. Two traces of one class differ only in their random
// stream, so a seed changes the inputs without changing the kind or the
// amount of work a pass does.
func traceClass(sp trace.Spec) string {
	dash := strings.LastIndexByte(sp.Name, '-')
	if dash < 0 {
		panic(fmt.Sprintf("perfbench: suite trace name %q has no variant suffix", sp.Name))
	}
	variant, err := strconv.Atoi(sp.Name[dash+1:])
	if err != nil {
		panic(fmt.Sprintf("perfbench: suite trace name %q: %v", sp.Name, err))
	}
	return fmt.Sprintf("%s|%d", sp.Name[:dash], variant%paramPeriod)
}

// picker substitutes suite traces by class under one seed.
type picker struct {
	seed    int64
	rng     *rand.Rand
	classes map[string][]trace.Spec
}

func newPicker(seed int64) *picker {
	p := &picker{seed: seed, rng: rand.New(rand.NewSource(seed)), classes: map[string][]trace.Spec{}}
	for _, sp := range trace.Suite() {
		k := traceClass(sp)
		p.classes[k] = append(p.classes[k], sp)
	}
	return p
}

// substitute replaces each spec with a member of its class, never
// repeating a trace within the returned set while its class has unused
// members. The default seed returns the specs unchanged.
func (p *picker) substitute(specs []trace.Spec) []trace.Spec {
	if p.seed == DefaultSeed {
		return specs
	}
	used := map[string]bool{}
	out := make([]trace.Spec, len(specs))
	for i, sp := range specs {
		members := p.classes[traceClass(sp)]
		var free []trace.Spec
		for _, m := range members {
			if !used[m.Name] {
				free = append(free, m)
			}
		}
		if len(free) == 0 {
			free = members
		}
		out[i] = free[p.rng.Intn(len(free))]
		used[out[i].Name] = true
	}
	return out
}

// subset returns the seed's single-core trace subset: the DefaultScale
// Representative traces, each substituted within its class.
func subset(seed int64, n int) []trace.Spec {
	return newPicker(seed).substitute(trace.Representative(n))
}

// mixes returns the seed's 4-core mixes: Fig 13's homogeneous mixes (one
// Representative trace per family on all four cores) followed by its six
// Table VII heterogeneous mix types, each member substituted within its
// class.
func mixes(seed int64) [][]trace.Spec {
	p := newPicker(seed)
	var out [][]trace.Spec
	for _, sp := range p.substitute(trace.Representative(4)) {
		out = append(out, []trace.Spec{sp, sp, sp, sp})
	}
	byClass := trace.ByClass(trace.Suite())
	L, M, H := trace.LowMPKI, trace.MediumMPKI, trace.HighMPKI
	for _, ty := range [][4]trace.MPKIClass{
		{L, L, L, L}, {M, M, M, M}, {H, H, H, H},
		{L, L, M, M}, {L, L, H, H}, {M, M, H, H},
	} {
		mix := make([]trace.Spec, len(ty))
		for i, class := range ty {
			members := byClass[class]
			mix[i] = members[i%len(members)]
		}
		out = append(out, p.substitute(mix))
	}
	return out
}
