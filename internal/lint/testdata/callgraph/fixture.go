// Fixture for the call-graph unit test: one static call, one concrete
// method call, and one interface dispatch, with a //pmp:hotpath root
// for the reachability assertions. Self-contained (no imports) so the
// test needs no export data.
package fixture

func helper() {}

type device struct{ n int }

func (d *device) method() { helper() }

// size has a value receiver.
func (d device) size() int { return d.n }

type actor interface{ act() }

func (d *device) act() { d.n++ }

//pmp:hotpath
func caller(a actor) {
	helper()
	d := &device{}
	d.method()
	a.act()
}

// orphan is reachable from nothing.
func orphan() { helper() }
