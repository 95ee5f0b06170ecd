// Fixtures for the hotalloc analyzer: functions reachable from a
// //pmp:hotpath root must not contain allocation-causing constructs
// unless the line carries a //pmp:allocok justification. Exempt shapes
// — buffer recycling via x[:0], capacity-guarded appends, and code the
// roots never reach — must stay silent.
package fixture

import (
	"fmt"

	"pmp/internal/mem"
)

type dev struct {
	n     int
	buf   []uint64
	limit int
	name  string
}

// step is the per-access path.
//
//pmp:hotpath
func (d *dev) step(x uint64) {
	d.direct(x)
	f := func() { d.n++ } // want "function literal may allocate its closure on the hot path"
	f()
}

// direct is hot by one hop of static reachability.
func (d *dev) direct(x uint64) {
	t := make([]uint64, 8) // want "make allocates on the hot path"
	_ = t
	p := new(dev) // want "new allocates on the hot path"
	_ = p
	m := map[uint64]int{} // want "map literal allocates on the hot path"
	_ = m
	d.buf = append(d.buf, x)   // want "append may grow d.buf on the hot path"
	s := fmt.Sprintf("%d", x)  // want "fmt.Sprintf formats and boxes its arguments on the hot path"
	label := d.name + "suffix" // want "string concatenation allocates on the hot path"
	_, _ = s, label
}

// take's parameter is an interface: non-pointer-shaped arguments box.
func (d *dev) take(v any) { _ = v }

func (d *dev) boxes(x uint64) {
	d.take(x) // want "boxes a uint64 into an interface on the hot path"
	d.take(d) // pointer-shaped: no allocation, no diagnostic
	d.take(3) // constant: materialized in static data, no diagnostic
}

// issuer is dispatched through an interface from the root, so its
// in-package implementation is hot too.
type issuer interface{ issue(n int) }

type impl struct{ q []int }

func (i *impl) issue(n int) {
	i.q = make([]int, n) // want "make allocates on the hot path"
}

//pmp:hotpath
func drive(v issuer, d *dev) {
	v.issue(4)
	d.boxes(9)
}

// Filler's only implementations are in package impl (the impl
// subdirectory), type-checked on its own like every package of the
// module, so each side has its own mem.Addr object. They leave their
// parameters unnamed or blank, as the real prefetchers' OnFill does;
// the dispatch in fill must reach them all the same.
type Filler interface {
	OnFill(line mem.Addr, useful bool)
}

//pmp:hotpath
func fill(f Filler) { f.OnFill(0, true) }

// --- exempt shapes: no diagnostics below this line ---

// recycle appends into buffers reset with the x[:0] idiom.
func (d *dev) recycle(xs []uint64) {
	d.buf = append(d.buf[:0], xs...)
	live := d.buf[:0]
	for _, x := range xs {
		if x > 0 {
			live = append(live, x)
		}
	}
	d.buf = live
}

// guarded appends under a visible capacity check.
func (d *dev) guarded(x uint64) {
	if len(d.buf) < d.limit {
		d.buf = append(d.buf, x)
	}
}

// justified carries an allocok annotation for a cold branch.
func (d *dev) justified(x uint64) {
	if d.n == 0 {
		//pmp:allocok one-time lazy init on the first access only
		d.buf = make([]uint64, 0, 64)
	}
	_ = x
}

//pmp:hotpath
func warm(d *dev, xs []uint64) {
	d.recycle(xs)
	d.guarded(7)
	d.justified(7)
}

// cold is not reachable from any root: anything goes.
func cold() []int {
	return append(make([]int, 0), len(fmt.Sprint("cold")))
}
