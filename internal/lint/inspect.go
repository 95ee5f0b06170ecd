package lint

import (
	"go/ast"
	"go/printer"
	"go/token"
	"slices"
	"strings"
)

// walkStack traverses the subtree rooted at root (a file for whole-file
// analyzers, a function body for the call-graph-scoped ones) calling fn
// with each node and the stack of its ancestors (outermost first, not
// including the node itself). Returning false from fn skips the node's
// children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// A pruned node gets no closing nil call from ast.Inspect,
			// so it is not pushed.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// exprString renders an expression compactly ("p.cfg.Cycle").
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	printer.Fprint(&sb, fset, e)
	return sb.String()
}

// dominated reports whether node, whose ancestors are stack, sits
// behind a check the author visibly made: an enclosing if (either
// branch) whose condition or init statement satisfies check, an
// enclosing for loop whose condition does, or an earlier if in an
// enclosing block that does and whose body leaves the block (the
// `if len(q) >= cap { return false }` bail-out). It is a syntactic
// approximation of dominance that does not look past the enclosing
// function.
func dominated(stack []ast.Node, node ast.Node, check func(ast.Node) bool) bool {
	checks := func(s *ast.IfStmt) bool {
		return check(s.Cond) || s.Init != nil && check(s.Init)
	}
	child := node
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.IfStmt:
			if (child == s.Body || child == s.Else) && checks(s) {
				return true
			}
		case *ast.ForStmt:
			if child == s.Body && s.Cond != nil && check(s.Cond) {
				return true
			}
		case *ast.BlockStmt:
			for _, st := range s.List {
				if st == child {
					break
				}
				if ifs, ok := st.(*ast.IfStmt); ok && terminates(ifs.Body) && checks(ifs) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
		child = stack[i]
	}
	return false
}

// terminates reports whether the block's last statement unconditionally
// transfers control out of the surrounding flow.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		return ok && fn.Name == "panic"
	}
	return false
}

// contains reports whether some node of n's subtree satisfies pred.
func contains(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		found = found || x != nil && pred(x)
		return !found
	})
	return found
}

// compares returns a check for dominated that holds when a node
// contains a comparison with one of targets on either side. `if a >= b
// { d := a - b }` counts as guarded for both "a" and "b"; either way
// the author has visibly considered the ordering.
func compares(fset *token.FileSet, targets ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		return contains(n, func(x ast.Node) bool {
			be, ok := x.(*ast.BinaryExpr)
			return ok && isComparison(be.Op) &&
				(slices.Contains(targets, exprString(fset, be.X)) || slices.Contains(targets, exprString(fset, be.Y)))
		})
	}
}

// isComparison reports whether op is an ordering or equality operator.
func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// mentions reports whether n contains an identifier whose lower-cased
// name contains one of words or equals one of exact: the vocabulary
// test the analyzers use to recognize cycle counts, bounded buffers,
// bounds and addresses by name.
func mentions(n ast.Node, words []string, exact ...string) bool {
	return contains(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return false
		}
		lower := strings.ToLower(id.Name)
		return slices.Contains(exact, lower) ||
			slices.ContainsFunc(words, func(w string) bool { return strings.Contains(lower, w) })
	})
}
