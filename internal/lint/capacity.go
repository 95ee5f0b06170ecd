package lint

import (
	"go/ast"
	"go/token"
)

// Capacity flags inserts into bounded hardware buffers — MSHR files,
// prefetch queues, pending/in-flight tables, FIFOs — that are not
// dominated by an occupancy check. Every such structure models a fixed
// number of SRAM entries; an unchecked `append` or map insert grows
// without bound, which both breaks the paper's storage accounting and
// silently grants the prefetcher infinite outstanding requests.
var Capacity = &Analyzer{
	Name: "capacity",
	Doc: "flags appends/inserts into MSHR-, queue-, pending- or FIFO-named containers " +
		"with no dominating occupancy or membership check against their capacity",
	Run: runCapacity,
}

func runCapacity(pass *Pass) {
	fset := pass.Pkg.Fset
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			// Bounded hardware buffers are named like one: an identifier
			// containing mshr/queue/pend/inflight/fifo, or exactly q/pq.
			container := enqueueTarget(fset, as)
			if container == nil ||
				!mentions(container, []string{"mshr", "queue", "pend", "inflight", "fifo"}, "q", "pq") {
				return true
			}
			c := exprString(fset, container)
			if dominated(stack, n, capacityCheck(fset, c)) {
				return true
			}
			pass.Reportf(as.Pos(), "insert into bounded structure %s has no dominating capacity check; "+
				"compare its occupancy (e.g. len(%s)) against the limit first", c, c)
			return true
		})
	}
}

// enqueueTarget returns the container an assignment grows, or nil when
// the statement is not an insert: either a map/slice element write
// `C[k] = v` or a self-append `C = append(C, ...)`.
func enqueueTarget(fset *token.FileSet, as *ast.AssignStmt) ast.Expr {
	if idx, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr); ok {
		return idx.X
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return nil
	}
	lhs := exprString(fset, as.Lhs[0])
	if exprString(fset, call.Args[0]) != lhs {
		return nil
	}
	return as.Lhs[0]
}

// capacityCheck returns a check for dominated that holds when a node
// visibly considers the container: it mentions the container itself
// (len(container) included), or compares something capacity-worded
// (cap/limit/max/size/budget/free/busy/room/full).
func capacityCheck(fset *token.FileSet, container string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		return contains(n, func(x ast.Node) bool {
			if be, ok := x.(*ast.BinaryExpr); ok {
				return isComparison(be.Op) &&
					mentions(be, []string{"cap", "limit", "max", "size", "budget", "free", "busy", "room", "full"})
			}
			e, ok := x.(ast.Expr)
			return ok && exprString(fset, e) == container
		})
	}
}
