package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Determinism flags the two ways nondeterminism has historically crept
// into this repository's results: map iteration order leaking into an
// output artifact, and wall-clock or randomness feeding simulated
// behavior. Both invariants are enforced at runtime (sha256 job IDs,
// resume-vs-fresh equality, the golden QuickScale digest) but only
// after a regression has already produced a bad artifact; this
// analyzer names the offending loop or call statically.
//
// Rule 1: a `range` over a map whose body reaches a result sink —
// stream/JSONL writes, digest input, CSV/table emit, diagnostic output
// — is flagged unless the iteration is first made deterministic
// (collect the keys, sort, range the sorted slice; such loops contain
// no sink call and naturally pass). Sink reachability comes from one
// backward walk over the call graph from the sinks, so a loop body
// that calls three helpers deep into another package is still caught.
//
// Rule 2: time.Now/time.Since and math/rand have no place in simulated
// behavior: they are flagged anywhere in internal/sim and
// internal/core, and inside the job-identity closure (RunSpec.ID in
// internal/runspec and everything it calls), where they would make job
// IDs differ across runs and silently defeat resume.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flags range-over-map loops whose bodies reach a result sink (store writes, " +
		"digests, CSV/table emit, diagnostics) without a deterministic order, and " +
		"time.Now/math/rand use in simulator and job-identity code",
	Run: runDeterminism,
}

// sinkSeeds maps canonical function keys to a short description of the
// artifact they feed. The set is deliberately conservative: every
// entry writes bytes a person or tool will compare across runs.
var sinkSeeds = map[string]string{
	"fmt.Print":    "fmt output",
	"fmt.Printf":   "fmt output",
	"fmt.Println":  "fmt output",
	"fmt.Fprint":   "fmt output",
	"fmt.Fprintf":  "fmt output",
	"fmt.Fprintln": "fmt output",

	"(io.Writer).Write":     "stream output",
	"(*bufio.Writer).Write": "stream output",
	"(*os.File).Write":      "stream output",

	"encoding/json.Marshal":              "JSON output",
	"encoding/json.MarshalIndent":        "JSON output",
	"(*encoding/json.Encoder).Encode":    "JSON output",
	"(*encoding/csv.Writer).Write":       "CSV output",
	"(*encoding/csv.Writer).WriteAll":    "CSV output",
	"crypto/sha256.Sum256":               "digest input",
	"(*pmp/internal/bench.Table).AddRow": "result table",
	"(*pmp/internal/sweep.Store).Append": "JSONL store",
	"(*pmp/internal/lint.Pass).Reportf":  "diagnostic output",
}

// sinks maps every function whose body reaches a result sink to the
// artifact the nearest sink feeds (ties go to the sink first in key
// order). It is one backward walk over the callers, computed once per
// Program, from the sinks themselves: the seeds above, and in-module
// functions that invoke a sink-named function value.
func sinks(prog *Program) map[*Func]string {
	if prog.sinks != nil {
		return prog.sinks
	}
	desc := map[*Func]string{}
	var roots []*Func
	for _, fn := range prog.Functions() {
		if d, ok := sinkDesc(prog, fn); ok {
			desc[fn] = d
			roots = append(roots, fn)
		}
	}
	prog.sinks = map[*Func]string{}
	for fn, s := range reach(roots, true) {
		prog.sinks[fn] = desc[s.root]
	}
	return prog.sinks
}

// sinkDesc reports whether fn is itself a sink, naming the artifact it
// feeds: a seed, or a function whose body calls a sink-named function
// value ("sink", "emit"). Calls through stored closures are invisible
// to the call graph, and those names are this repository's convention
// for injectable output (e.g. the lifecycle tracker's event sink).
func sinkDesc(prog *Program, fn *Func) (string, bool) {
	if desc, ok := sinkSeeds[fn.Key]; ok {
		return desc, true
	}
	if fn.Decl == nil || fn.Decl.Body == nil {
		return "", false
	}
	desc := ""
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(prog.resolveCall(fn.Pkg, call)) > 0 {
			return true
		}
		d, ok := dynamicSinkCall(fn.Pkg, call)
		if ok {
			desc = d
		}
		return !ok
	})
	return desc, desc != ""
}

// dynamicSinkCall classifies a statically unresolvable call (through a
// function value) as a sink when the called expression is sink-named.
func dynamicSinkCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	var name string
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	if strings.Contains(lower, "sink") || strings.Contains(lower, "emit") {
		return "injected " + exprString(pkg.Fset, call.Fun) + " sink", true
	}
	return "", false
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Pkg.Info.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				checkMapRange(pass, rng)
			}
			return true
		})
	}
	checkSimClock(pass)
	checkIdentityClock(pass)
}

// checkMapRange reports the first sink the range body reaches, if any.
// A body that only accumulates (into another map, a slice later
// sorted, a counter) reaches nothing and passes.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	pkg, prog := pass.Pkg, pass.Prog
	subject := exprString(pkg.Fset, rng.X)
	done := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callees := prog.resolveCall(pkg, call)
		if len(callees) == 0 {
			if desc, ok := dynamicSinkCall(pkg, call); ok {
				done = true
				pass.Reportf(rng.Pos(),
					"map iteration order over %s reaches %s; collect the keys, sort, and range the slice",
					subject, desc)
			}
			return true
		}
		for _, fn := range callees {
			if desc, ok := sinks(prog)[fn]; ok {
				done = true
				pass.Reportf(rng.Pos(),
					"map iteration order over %s reaches the %s through %s; "+
						"collect the keys, sort, and range the slice",
					subject, desc, fn.Name())
				return false
			}
		}
		return true
	})
}

// checkSimClock flags wall-clock and randomness calls anywhere in the
// simulator packages, whose behavior must be a pure function of trace
// and configuration.
func checkSimClock(pass *Pass) {
	path := pass.Pkg.ImportPath
	if !strings.Contains(path, "internal/sim") && !strings.Contains(path, "internal/core") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if src, ok := nondetSource(pass.Pkg, call); ok {
				pass.Reportf(call.Pos(),
					"%s in simulator code: behavior must be a pure function of trace and config; "+
						"derive it from the cycle counter or a seeded generator", src)
			}
			return true
		})
	}
}

// checkIdentityClock flags wall-clock and randomness calls inside the
// job-identity closure: RunSpec.ID in internal/runspec and everything
// it transitively calls. A job ID that differs across runs silently
// defeats resume — every job re-runs.
func checkIdentityClock(pass *Pass) {
	closure := reach(identityRoots(pass.Prog), false)
	members := make([]*Func, 0, len(closure))
	for fn := range closure {
		if fn.Pkg == pass.Pkg && fn.Decl != nil && fn.Decl.Body != nil {
			members = append(members, fn)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Key < members[j].Key })
	for _, fn := range members {
		root := closure[fn].root
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if src, ok := nondetSource(pass.Pkg, call); ok {
				pass.Reportf(call.Pos(),
					"%s inside job-identity code (reached from %s): "+
						"IDs must be identical across runs or resume re-runs every job", src, root.Name())
			}
			return true
		})
	}
}

// identityRoots returns the job-identity functions: the ID method of
// RunSpec in an internal/runspec package.
func identityRoots(prog *Program) []*Func {
	var roots []*Func
	for _, fn := range prog.Functions() {
		if fn.Pkg == nil || fn.Decl == nil || !strings.Contains(fn.Pkg.ImportPath, "internal/runspec") {
			continue
		}
		if strings.HasSuffix(fn.Key, ".RunSpec).ID") {
			roots = append(roots, fn)
		}
	}
	return roots
}

// nondetSource reports whether the call reads the wall clock (time.Now,
// time.Since) or math/rand, naming the source.
func nondetSource(pkg *Package, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(pkg, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" {
			return "time." + obj.Name(), true
		}
	case "math/rand", "math/rand/v2":
		return "math/rand." + obj.Name(), true
	}
	return "", false
}
