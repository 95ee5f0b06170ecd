package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a percentile before it
// is reported: a tail figure resting on fewer is noise.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported: at least minBeyond samples rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	idx = min(max(idx, 0), len(s)-1)
	return s[idx], len(s)-1-idx >= minBeyond
}

// passTime is the time a run reports for its passes: their nearest-rank
// lower quartile. Every pass does the same work, and the host's other
// tenants only ever add time, drifting over minutes by up to 40% on the
// reference host; the faster quarter of the passes is the figure they
// move least, without resting on the single fastest pass.
func passTime(walls []float64) float64 {
	v, _ := percentile(walls, 25)
	return v
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
