package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation-causing constructs in functions reachable
// from //pmp:hotpath roots. The simulator's throughput argument (and
// the perf-regression gate pinning 0 allocs/access) depends on the
// per-access path never touching the garbage collector; this analyzer
// moves that invariant from the benchmark — which catches a regression
// only after it lands — to the source, where the offending construct is
// named before anything runs.
//
// Flagged constructs: make and new, map composite literals, growing
// append (appends neither recycling a buffer via x[:0] nor dominated
// by a capacity check), interface boxing of non-pointer-shaped values
// at call sites, function literals (closure allocation), fmt calls,
// and string concatenation. Cold branches inside hot functions are
// exempted line-by-line with "//lint:ignore hotalloc <reason>", like
// any other finding; the reason is mandatory and unused directives are
// themselves reported (see reportUnusedDirectives).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-causing constructs (make/new, map literals, growing append, " +
		"interface boxing, closures, fmt, string concatenation) in functions reachable " +
		"from //pmp:hotpath roots; suppress cold branches with //lint:ignore hotalloc <reason>",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, fn := range pass.Prog.Functions() {
		if fn.Pkg != pass.Pkg || fn.Decl == nil || fn.Decl.Body == nil {
			continue
		}
		root, via, hot := pass.Prog.HotPath(fn)
		if !hot {
			continue
		}
		checkHotFunc(pass, fn, hotContext(fn, root, via))
	}
}

// hotContext renders why fn is on the hot path, for diagnostics.
func hotContext(fn, root, via *Func) string {
	switch {
	case via == nil:
		return fmt.Sprintf("%s is a //pmp:hotpath root", fn.Name())
	case via == root:
		return fmt.Sprintf("%s is called from //pmp:hotpath root %s", fn.Name(), root.Name())
	default:
		return fmt.Sprintf("%s is reachable from //pmp:hotpath root %s via %s",
			fn.Name(), root.Name(), via.Name())
	}
}

// checkHotFunc walks one hot function's body for allocation sites.
func checkHotFunc(pass *Pass, fn *Func, ctx string) {
	pkg := pass.Pkg
	walkStack(fn.Decl, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, x, stack, ctx)
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[x]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(),
						"map literal allocates on the hot path (%s); hoist it to setup", ctx)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(),
				"function literal may allocate its closure on the hot path (%s); "+
					"hoist it to setup or justify with //lint:ignore hotalloc", ctx)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringConcat(pkg, x) {
				pass.Reportf(x.Pos(),
					"string concatenation allocates on the hot path (%s); "+
						"precompute the string or switch to integer keys", ctx)
			}
		}
		return true
	})
}

// checkHotCall flags allocating builtins, fmt calls, and interface
// boxing at one call site inside a hot function.
func checkHotCall(pass *Pass, call *ast.CallExpr, stack []ast.Node, ctx string) {
	pkg := pass.Pkg
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(),
					"make allocates on the hot path (%s); preallocate in setup and reuse", ctx)
			case "new":
				pass.Reportf(call.Pos(),
					"new allocates on the hot path (%s); preallocate in setup and reuse", ctx)
			case "append":
				checkHotAppend(pass, call, stack, ctx)
			}
			return
		}
	}
	if callee := calleeObj(pkg, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s formats and boxes its arguments on the hot path (%s); "+
				"move formatting off the per-access path", callee.Name(), ctx)
		return // boxing into ...any is implied; don't double-report below
	}
	checkBoxing(pass, call, ctx)
}

// checkHotAppend flags appends that may grow their backing array. Two
// shapes are exempt because they express reuse of a preallocated
// buffer: appending to a slice recycled with x[:0] (directly or via a
// variable assigned from such an expression in the same function), and
// appends dominated by a capacity check against the destination (the
// bounded-structure idiom capacity.go enforces).
func checkHotAppend(pass *Pass, call *ast.CallExpr, stack []ast.Node, ctx string) {
	if len(call.Args) == 0 {
		return
	}
	pkg := pass.Pkg
	dst := ast.Unparen(call.Args[0])
	if isRecycleSlice(dst) {
		return
	}
	if id, ok := dst.(*ast.Ident); ok && recycledInFunc(stack, id.Name) {
		return
	}
	target := exprString(pkg.Fset, dst)
	if dominated(stack, call, capacityCheck(pkg.Fset, target)) {
		return
	}
	pass.Reportf(call.Pos(),
		"append may grow %s on the hot path (%s); reserve capacity in setup and "+
			"recycle with %s[:0], or guard with a capacity check", target, ctx, target)
}

// isRecycleSlice reports whether e is the x[:0] buffer-recycling idiom.
func isRecycleSlice(e ast.Expr) bool {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High == nil {
		return false
	}
	lit, ok := sl.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// recycledInFunc reports whether the enclosing function (innermost
// FuncDecl or FuncLit on the stack) assigns name from an x[:0] slice
// expression anywhere in its body — the `live := p.done[:0]` shape
// where the recycled buffer is appended to under a new name.
func recycledInFunc(stack []ast.Node, name string) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0 && body == nil; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			body = f.Body
		case *ast.FuncLit:
			body = f.Body
		}
	}
	return body != nil && contains(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if ok && id.Name == name && i < len(as.Rhs) && isRecycleSlice(as.Rhs[i]) {
				return true
			}
		}
		return false
	})
}

// checkBoxing flags arguments whose conversion to an interface
// parameter must heap-allocate: a non-pointer-shaped concrete value
// (basic, string, struct, array, or slice) boxed into an interface.
// Pointer-shaped values (pointers, channels, maps, funcs) fit in the
// interface word directly, constants are materialized in static data,
// and nil boxes nothing, so all three are exempt.
func checkBoxing(pass *Pass, call *ast.CallExpr, ctx string) {
	pkg := pass.Pkg
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.IsNil() || at.Value != nil || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) || pointerShaped(at.Type) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"passing %s boxes a %s into an interface on the hot path (%s); "+
				"pass a pointer or use a concrete parameter type",
			exprString(pkg.Fset, arg), at.Type.String(), ctx)
	}
}

// pointerShaped reports whether values of t fit in an interface's data
// word without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringConcat reports whether the + expression produces a
// non-constant string (constant folding happens at compile time).
func isStringConcat(pkg *Package, e *ast.BinaryExpr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// calleeObj resolves a call's target to its types.Func (static calls
// and concrete or interface method calls), or nil for builtins,
// conversions, and calls through plain function values.
func calleeObj(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if o, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}
