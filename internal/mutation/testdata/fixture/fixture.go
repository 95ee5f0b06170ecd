// Package fixture is the mutation driver's test subject: each of its
// mutants has a known class (see TestDriverOnFixture).
package fixture

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a < b {
		return b
	}
	return a
}

// Double returns 2x. Only the stand-in digest test checks it.
func Double(x int) (out int) {
	v := x * 2
	out = v
	return
}
