// Package lint is a self-contained static-analysis framework plus the
// pmplint analyzer suite that enforces this repository's simulator
// invariants (line-aligned geometry arithmetic, saturating-counter
// discipline, cycle-math underflow safety, the prefetch.Prefetcher
// implementation contract, hot-path allocation freedom, and output
// determinism).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) but is built only on the standard
// library so the repository stays dependency-free: packages are loaded
// with `go list -export` and type-checked with go/types using the
// toolchain's export data for dependencies (see load.go). On top of
// the per-package passes, a Program (see callgraph.go) spans every
// loaded package with an intra-module call graph, which the
// cross-package analyzers (hotalloc, determinism) walk. Analyzers are
// compiled into cmd/pmplint, which always checks the whole module.
//
// See docs/linting.md for what each analyzer checks and why the
// invariant matters for the paper's hardware model.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static-analysis pass. It mirrors the x/tools
// analysis.Analyzer shape so the suite could be ported to the real
// framework if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> <reason>" suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run executes the pass and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one analyzed package to an Analyzer's Run function.
// Prog is the whole-program view shared by every pass of a Run:
// cross-package analyzers resolve the call graph through it but must
// report only diagnostics positioned in Pkg, so the combined output is
// identical regardless of package order.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless it is suppressed by a
// "//lint:ignore" comment (see suppressed).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full pmplint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MagicGeometry,
		CycleMath,
		SatCounter,
		Capacity,
		PrefetcherImpl,
		HotAlloc,
		Determinism,
	}
}

// ByName returns the named analyzers (all when names is empty), or an
// error naming the unknown entry.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// Run builds the whole-program view for the packages, applies every
// analyzer, checks suppression hygiene, and returns the combined
// findings in a deterministic total order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &diags}
			a.Run(pass)
		}
	}
	reportUnusedDirectives(prog, analyzers, &diags)
	return sortDiagnostics(diags)
}

// sortDiagnostics imposes the canonical total order — file, line,
// column, analyzer, message — and drops exact duplicates, so output is
// byte-identical across runs, package orders, and process schedules.
func sortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// UnusedIgnoreName is the analyzer name suppression-hygiene
// diagnostics are reported under.
const UnusedIgnoreName = "unusedignore"

// reportUnusedDirectives flags stale suppression comments: a
// //lint:ignore directive none of whose named analyzers suppressed
// anything this run. A stale directive silently masks the next real
// regression on its line, so it must be deleted (or updated) rather
// than accumulate.
//
// A directive is only judged when every analyzer it names ran ("all"
// directives require the full suite) — a partial -analyzers run can
// never prove a directive stale.
func reportUnusedDirectives(prog *Program, analyzers []*Analyzer, diags *[]Diagnostic) {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	full := true
	for _, a := range Analyzers() {
		full = full && ran[a.Name]
	}
	ran["all"] = full
	for _, pkg := range prog.Pkgs {
		for _, lines := range pkg.ignores {
			for _, ln := range lines {
				judged := !ln.used
				for _, n := range ln.names {
					judged = judged && ran[n]
				}
				if !judged {
					continue
				}
				*diags = append(*diags, Diagnostic{
					Analyzer: UnusedIgnoreName,
					Pos:      ln.pos,
					Message: fmt.Sprintf("unused //lint:ignore %s directive suppresses nothing; delete it",
						strings.Join(ln.names, ",")),
				})
			}
		}
	}
}

// ignoreDirective parses a "//lint:ignore <analyzer...> <reason>"
// comment, returning the analyzer names it suppresses (the special name
// "all" suppresses every analyzer). A directive with no reason is
// malformed and suppresses nothing, so stale annotations stay visible.
func ignoreDirective(c *ast.Comment) (names []string, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//lint:ignore ")
	if !found {
		return nil, false
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil, false // no reason given
	}
	return strings.Split(fields[0], ","), true
}

// suppressed reports whether a diagnostic from the named analyzer at
// position is covered by a lint:ignore directive on the same line or
// the line immediately above it, marking the directive used.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, line := range p.ignores[pos.Filename] {
		if line.pos.Line != pos.Line && line.pos.Line != pos.Line-1 {
			continue
		}
		for _, n := range line.names {
			if n == analyzer || n == "all" {
				line.used = true
				return true
			}
		}
	}
	return false
}

// directiveLine is one //lint:ignore directive.
type directiveLine struct {
	pos   token.Position
	names []string
	used  bool
}

// collectIgnores indexes every lint:ignore directive by file and line.
func (p *Package) collectIgnores() {
	p.ignores = map[string][]*directiveLine{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if names, ok := ignoreDirective(c); ok {
					pos := p.Fset.Position(c.Pos())
					p.ignores[pos.Filename] = append(p.ignores[pos.Filename],
						&directiveLine{pos: pos, names: names})
				}
			}
		}
	}
}
