package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CycleMath flags unsigned cycle/timestamp subtractions that can wrap
// around zero without a dominating comparison. The simulator carries
// all timing as uint64 cycle counts; `deadline - now` with the operands
// swapped (or a stale timestamp) silently produces a ~2^64 latency
// instead of a crash, which is far harder to debug than the lint.
var CycleMath = &Analyzer{
	Name: "cyclemath",
	Doc: "flags uint cycle/timestamp subtractions not dominated by a comparison " +
		"of the operands (possible underflow to ~2^64)",
	Run: runCycleMath,
}

func runCycleMath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.SUB {
				return true
			}
			if !isUnsigned(pass.Pkg.Info.Types[be].Type) {
				return true
			}
			// x-1 style offsets are a different hazard class; only flag
			// subtractions of two runtime time values.
			if pass.Pkg.Info.Types[be.X].Value != nil || pass.Pkg.Info.Types[be.Y].Value != nil {
				return true
			}
			// Only operands named like a cycle count or timestamp.
			if !mentions(be, []string{"cycle", "tick", "stamp", "deadline"}, "now", "when", "time") {
				return true
			}
			x := exprString(pass.Pkg.Fset, be.X)
			y := exprString(pass.Pkg.Fset, be.Y)
			if dominated(stack, n, compares(pass.Pkg.Fset, x, y)) {
				return true
			}
			pass.Reportf(be.Pos(), "unsigned cycle subtraction %q may underflow; "+
				"guard with a comparison of %s and %s first", exprString(pass.Pkg.Fset, be), x, y)
			return true
		})
	}
}

// isUnsigned reports whether t's underlying type is an unsigned integer.
func isUnsigned(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}
