package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the cross-package half of the framework: an intra-module
// call graph over every loaded package and one breadth-first walk over
// it, reach. Analyzers that need whole-program views (hotalloc's
// hot-path reachability, determinism's sink and job-identity closures)
// build on it; the original per-package analyzers ignore it entirely.
//
// Packages are loaded and type-checked independently (each with its own
// token.FileSet, dependencies coming from export data), so the same
// function is represented by *different* types.Func objects in
// different packages. Nodes are therefore keyed by the canonical
// types.Func.FullName string ("(*pmp/internal/cache.Cache).Lookup"),
// which is identical whether the object came from source or from
// export data.

// Func is one node of the call graph: a declared function or method.
// Functions defined outside the loaded packages (standard library,
// export-data-only dependencies) get nodes too — so analyzers can test
// for edges into time.Now or fmt.Fprintf — but carry no Decl or Pkg.
type Func struct {
	Key  string        // canonical types.Func.FullName
	Pkg  *Package      // defining package; nil when external
	Decl *ast.FuncDecl // body; nil when external

	// HotRoot is set when the declaration carries a //pmp:hotpath
	// annotation in its doc comment.
	HotRoot bool

	// Callees and Callers list each neighbour once, in the order the
	// call sites first resolved to it.
	Callees []*Func
	Callers []*Func
}

// Name returns a compact human-readable name ("(*Core).step").
func (f *Func) Name() string {
	key := f.Key
	// Strip package paths from the receiver and name for display.
	if i := strings.LastIndex(key, "/"); i >= 0 && !strings.Contains(key, ")") {
		return key[i+1:]
	}
	if open := strings.Index(key, "("); open >= 0 {
		if close := strings.Index(key, ")"); close > open {
			recv := key[open+1 : close]
			if i := strings.LastIndex(recv, "/"); i >= 0 {
				recv = recv[i+1:]
			}
			return "(" + recv + ")" + key[close+1:]
		}
	}
	return key
}

// Program is the whole-module view: every loaded package and the call
// graph spanning them. Build one with NewProgram and share it across
// analyzers via Pass.Prog.
type Program struct {
	Pkgs  []*Package
	funcs map[string]*Func

	implCache map[*types.Interface][]*types.Named

	// hot and sinks are computed on first use: the functions reachable
	// from a //pmp:hotpath root (hotalloc), and the functions that
	// reach a result sink, with the artifact it feeds (determinism).
	hot   map[*Func]step
	sinks map[*Func]string
}

// step records how reach discovered a function.
type step struct {
	root *Func // the root the function was reached from
	via  *Func // the neighbour it was discovered through (nil for a root)
}

// reach walks the call graph breadth-first from roots — over Callees,
// or over Callers when backward — and returns every function reached,
// with the root and neighbour it was first reached through. Roots are
// taken in the order given and neighbours in first-resolution order,
// so the recorded paths are deterministic.
func reach(roots []*Func, backward bool) map[*Func]step {
	seen := make(map[*Func]step, len(roots))
	for _, r := range roots {
		seen[r] = step{root: r}
	}
	for queue := slices.Clone(roots); len(queue) > 0; queue = queue[1:] {
		fn := queue[0]
		next := fn.Callees
		if backward {
			next = fn.Callers
		}
		for _, n := range next {
			if _, ok := seen[n]; !ok {
				seen[n] = step{root: seen[fn].root, via: fn}
				queue = append(queue, n)
			}
		}
	}
	return seen
}

// NewProgram builds the call graph for the loaded packages. Packages
// are put in dependency order (imports before importers), so the graph
// and every walk over it are the same whatever order pkgs came in.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:  topoSort(pkgs),
		funcs: map[string]*Func{},
	}
	// Pass 1: declare every source function so call resolution can
	// attach bodies regardless of package order.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := p.node(funcKey(obj))
				fn.Pkg = pkg
				fn.Decl = fd
				fn.HotRoot = hasDirective(fd.Doc, "//pmp:hotpath")
			}
		}
	}
	// Pass 2: resolve call sites.
	for _, pkg := range p.Pkgs {
		p.addPackageEdges(pkg)
	}
	return p
}

// FuncByName returns the node whose canonical key is key, or nil.
func (p *Program) FuncByName(key string) *Func { return p.funcs[key] }

// Functions returns every node in deterministic key order.
func (p *Program) Functions() []*Func {
	keys := make([]string, 0, len(p.funcs))
	for k := range p.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Func, len(keys))
	for i, k := range keys {
		out[i] = p.funcs[k]
	}
	return out
}

// topoSort orders packages dependency-first (a package after every
// package it imports), falling back to input order among unrelated
// packages.
func topoSort(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.ImportPath] = pkg
	}
	var out []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(pkg *Package)
	visit = func(pkg *Package) {
		switch state[pkg.ImportPath] {
		case 1, 2:
			return
		}
		state[pkg.ImportPath] = 1
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[pkg.ImportPath] = 2
		out = append(out, pkg)
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	return out
}

// node returns (creating if needed) the Func for key.
func (p *Program) node(key string) *Func {
	fn, ok := p.funcs[key]
	if !ok {
		fn = &Func{Key: key}
		p.funcs[key] = fn
	}
	return fn
}

// funcKey canonicalizes a types.Func to its node key. Instantiated
// generic methods collapse onto their origin so one node covers every
// instantiation.
func funcKey(obj *types.Func) string {
	if o := obj.Origin(); o != nil {
		obj = o
	}
	return obj.FullName()
}

// hasDirective reports whether the comment group contains a line whose
// text starts with the directive (exact or followed by a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// addPackageEdges resolves every call site in the package to edges.
// Calls inside function literals are attributed to the enclosing
// declared function — the closure runs on the caller's path. Calls
// through plain function values (fields, parameters) are unresolvable
// statically and are skipped: the graph under-approximates dynamic
// dispatch through stored closures, and over-approximates interface
// dispatch (every in-module implementation gets an edge).
func (p *Program) addPackageEdges(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			caller := p.node(funcKey(obj))
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					for _, callee := range p.resolveCall(pkg, call) {
						link(caller, callee)
					}
				}
				return true
			})
		}
	}
}

// resolveCall resolves a call expression to its possible callees:
// exactly one for direct and concrete-method calls, the interface
// method plus every in-module implementation for interface dispatch,
// and none for calls through plain function values (closures stored in
// fields or passed as parameters), which are statically unresolvable.
// Both the graph builder and the determinism analyzer's loop-body scan
// share this resolution, so the two views can never disagree.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) []*Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Direct call: package-level function from this or a dot-free
		// import (builtins and type conversions resolve to non-Func
		// objects and are skipped).
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*Func{p.node(funcKey(obj))}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			out := []*Func{p.node(funcKey(obj))}
			// Interface dispatch: the interface method itself (so
			// stdlib sinks like (io.Writer).Write stay visible) plus
			// one callee per in-module implementation.
			if iface, _ := sel.Recv().Underlying().(*types.Interface); iface != nil {
				for _, impl := range p.implementations(iface) {
					mo, _, _ := types.LookupFieldOrMethod(impl, true, impl.Obj().Pkg(), obj.Name())
					if m, ok := mo.(*types.Func); ok {
						out = append(out, p.node(funcKey(m)))
					}
				}
			}
			return out
		}
		// Qualified call: pkg.Func (no selection entry).
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*Func{p.node(funcKey(obj))}
		}
	}
	return nil
}

// implementations returns every named type declared in the loaded
// packages that implements iface (by value or pointer receiver).
// Results are memoized per interface: dispatch sites are common and
// the scan walks every package scope.
func (p *Program) implementations(iface *types.Interface) []*types.Named {
	if impls, ok := p.implCache[iface]; ok {
		return impls
	}
	var out []*types.Named
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if implementsCross(named, iface) {
				out = append(out, named)
			}
		}
	}
	if p.implCache == nil {
		p.implCache = map[*types.Interface][]*types.Named{}
	}
	p.implCache[iface] = out
	return out
}

// implementsCross reports whether named (or *named) implements iface,
// tolerating the two types coming from different type-check universes.
// Each loaded package is checked independently, so the "same" named
// type appears as distinct types.Object trees per package and
// types.Implements — which compares objects by identity — reports
// false across packages. The fallback compares method parameter and
// result types structurally, rendered with full package paths, which is
// identical exactly when the toolchain would consider the types
// identical.
func implementsCross(named *types.Named, iface *types.Interface) bool {
	if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
		return true
	}
	n := iface.NumMethods()
	if n == 0 {
		return false // any matches nothing callable
	}
	for i := 0; i < n; i++ {
		im := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), im.Name())
		m, ok := obj.(*types.Func)
		if !ok || !sameSignature(m, im) {
			return false
		}
	}
	return true
}

// pathQual renders package names as full import paths, so type strings
// from different universes compare equal iff the types are identical.
func pathQual(p *types.Package) string { return p.Path() }

// sameSignature compares two methods' parameter and result types,
// ignoring the receiver and every parameter name: as for the
// toolchain's method sets, OnFill(line mem.Addr, …), OnFill(mem.Addr, …)
// and OnFill(_ mem.Addr, …) all have the same type.
func sameSignature(a, b *types.Func) bool {
	sa, ok := a.Type().(*types.Signature)
	sb, okb := b.Type().(*types.Signature)
	return ok && okb && sa.Variadic() == sb.Variadic() &&
		sameTypes(sa.Params(), sb.Params()) && sameTypes(sa.Results(), sb.Results())
}

// sameTypes reports whether two tuples hold the same types in order.
func sameTypes(a, b *types.Tuple) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if types.TypeString(a.At(i).Type(), pathQual) != types.TypeString(b.At(i).Type(), pathQual) {
			return false
		}
	}
	return true
}

// link records the call edge caller -> callee once.
func link(caller, callee *Func) {
	for _, c := range caller.Callees {
		if c == callee {
			return
		}
	}
	caller.Callees = append(caller.Callees, callee)
	callee.Callers = append(callee.Callers, caller)
}

// HotPathRoots returns every //pmp:hotpath annotated function, in key
// order.
func (p *Program) HotPathRoots() []*Func {
	var roots []*Func
	for _, fn := range p.Functions() {
		if fn.HotRoot {
			roots = append(roots, fn)
		}
	}
	return roots
}

// HotPath reports whether fn is reachable from a //pmp:hotpath root,
// and if so the root and the immediate caller on the discovery path
// (via == nil when fn is itself a root).
func (p *Program) HotPath(fn *Func) (root, via *Func, hot bool) {
	if p.hot == nil {
		p.hot = reach(p.HotPathRoots(), false)
	}
	s, ok := p.hot[fn]
	return s.root, s.via, ok
}
