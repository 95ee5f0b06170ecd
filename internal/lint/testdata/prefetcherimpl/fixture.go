// Fixtures for the prefetcherimpl analyzer: every prefetch.Prefetcher
// implementation needs a constant (or construction-time) Name, a
// non-trivial StorageBits, and no exported mutable package state.
package fixture

import (
	"fmt"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

var SharedTable []uint64 // want "exported mutable package state"

// Bad formats its name per call and claims zero storage.
type Bad struct{ ways int }

func (b *Bad) Name() string { return fmt.Sprintf("bad-%dw", b.ways) } // want "constant string"

func (b *Bad) Train(prefetch.Access) {}

func (b *Bad) IssueInto(dst []prefetch.Request, _ int) []prefetch.Request { return dst }

func (b *Bad) OnEvict(mem.Addr) {}

func (b *Bad) OnFill(mem.Addr, prefetch.Level, bool) {}

func (b *Bad) StorageBits() int { return 0 } // want "literal 0"

// Good uses a constant name and accounts its budget.
type Good struct {
	table []uint64
}

func (g *Good) Name() string { return "good" }

func (g *Good) Train(prefetch.Access) {}

func (g *Good) IssueInto(dst []prefetch.Request, _ int) []prefetch.Request { return dst }

func (g *Good) OnEvict(mem.Addr) {}

func (g *Good) OnFill(mem.Addr, prefetch.Level, bool) {}

func (g *Good) StorageBits() int { return len(g.table) * 64 }

// Named computes its name once at construction, which is allowed.
type Named struct {
	name string
}

func NewNamed(ways int) *Named { return &Named{name: fmt.Sprintf("named-%dw", ways)} }

func (n *Named) Name() string { return n.name }

func (n *Named) Train(prefetch.Access) {}

func (n *Named) IssueInto(dst []prefetch.Request, _ int) []prefetch.Request { return dst }

func (n *Named) OnEvict(mem.Addr) {}

func (n *Named) OnFill(mem.Addr, prefetch.Level, bool) {}

func (n *Named) StorageBits() int { return 128 }

// notAPrefetcher has a formatted Name but implements nothing.
type notAPrefetcher struct{ id int }

func (n notAPrefetcher) Name() string { return fmt.Sprintf("x-%d", n.id) }
