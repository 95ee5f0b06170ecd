// Fixtures for the determinism analyzer's map-iteration rule: ranging
// over a map whose body reaches a result sink — directly, through a
// helper chain, through a call cycle, or through an injected sink-named
// function value — is flagged; collect-then-sort and pure accumulation
// stay silent.
package fixture

import (
	"fmt"
	"sort"
)

func emitAll(m map[string]int) {
	for k, v := range m { // want "map iteration order over m reaches the fmt output through fmt.Printf"
		fmt.Printf("%s=%d\n", k, v)
	}
}

// The sink is two helper hops away: the backward walk from the sinks
// over the callers reaches the loop's callee all the same.
func viaHelpers(m map[string]int) {
	for k := range m { // want "map iteration order over m reaches the fmt output"
		record(k)
	}
}

func record(k string) { log(k) }

func log(k string) { fmt.Println(k) }

// The sink is reached only through a call cycle: the loop calls pong,
// pong calls ping, and only ping calls the sink.
func rally(m map[string]int) {
	for k := range m { // want "map iteration order over m reaches the fmt output through determinism.pong"
		pong(k, 3)
	}
}

func ping(k string, n int) {
	fmt.Print(k)
	pong(k, n)
}

func pong(k string, n int) {
	if n > 0 {
		ping(k, n-1)
	}
}

// An injected sink-named function value counts even though the call
// graph cannot resolve it.
type tracker struct{ sink func(string) }

func (t *tracker) flush(m map[string]bool) {
	for k := range m { // want "map iteration order over m reaches injected t.sink sink"
		t.sink(k)
	}
}

// A function that invokes an injected sink is itself a sink for the
// walk back to its callers.
func (t *tracker) note(k string) { t.sink(k) }

func (t *tracker) flushVia(m map[string]bool) {
	for k := range m { // want `reaches the injected t.sink sink through \(\*determinism.tracker\).note`
		t.note(k)
	}
}

// --- deterministic shapes: no diagnostics below this line ---

// Collect-then-sort: the loop body only accumulates; the sink sees the
// sorted slice.
func sorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// Pure accumulation never reaches a sink.
func tally(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Merging into another map is order-independent.
func merge(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}
