// Implementations of the hotalloc fixture's Filler, reached only
// through the interface dispatch in the parent fixture's //pmp:hotpath
// root fill.
package impl

import "pmp/internal/mem"

// Unnamed leaves every parameter unnamed.
type Unnamed struct{ votes []int }

func (u *Unnamed) OnFill(mem.Addr, bool) {
	u.votes = make([]int, 64) // want "make allocates on the hot path"
}

// Blank names one parameter and blanks the other.
type Blank struct{ last *mem.Addr }

func (b *Blank) OnFill(_ mem.Addr, useful bool) {
	if useful {
		b.last = new(mem.Addr) // want "new allocates on the hot path"
	}
}
