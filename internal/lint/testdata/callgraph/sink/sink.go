// Cross-package call-graph fixture, dispatch side: an interface whose
// method names its parameters, called from a //pmp:hotpath root. The
// implementations are in package fill, type-checked on its own, so
// each side has its own mem.Addr object, as the simulator's
// prefetch.Prefetcher dispatch and the prefetchers do.
package sink

import "pmp/internal/mem"

type Filler interface {
	OnFill(line mem.Addr, level int, useful bool)
}

//pmp:hotpath
func Drive(f Filler) { f.OnFill(0, 1, true) }
