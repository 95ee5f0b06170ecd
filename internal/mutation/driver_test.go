// Package mutation is a mutation-testing driver that lives only in
// test code. It edits one site of a package's non-test source at a
// time, builds the mutant through `go test -overlay` (the tree is
// never written), runs the package's own tests and then the
// simulator's golden digest tests, and sorts each mutant into a
// class. docs/mutation.md explains the classes, the operators and how
// to triage a ledger.
package mutation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Operators.
const (
	opRelational = "relational" // < <=, > >=, == != swapped
	opNegate     = "negate"     // if/for condition c becomes !(c)
	opConstant   = "constant"   // integer literal: 0→1, 1→0, n→n+1
	opDelete     = "delete"     // one statement removed
	opReturn     = "return"     // return zero values at function entry
)

var operators = []string{opRelational, opNegate, opConstant, opDelete, opReturn}

// span replaces src[start:end] with text.
type span struct {
	start, end int
	text       string
}

// A mutant is one edit at one site of a package's non-test code.
type mutant struct {
	file string // absolute path of the edited file
	fn   string // enclosing declaration: "F", "(*T).M", "T.M" or "const X"
	op   string
	from string // source text at the site, whitespace collapsed
	to   string // the same text after the edit
	src  []byte // the whole edited file
}

// key identifies a mutant by function, operator and source text, not
// by line, so equivalents survive unrelated edits.
func (m mutant) key() string {
	return m.fn + "\t" + m.op + "\t" + m.from + "\t" + m.to
}

// generate returns every mutant of the non-test Go files in dir, in
// file and source order. Keys that repeat within the package get a
// " #n" suffix on their "to" text; edits that yield an identical file
// are kept once.
func generate(dir string) ([]mutant, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []mutant
	seenKey := map[string]int{}
	seenSrc := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		g := &fileGen{path: path, src: src, tf: fset.File(f.Pos()), comments: f.Comments}
		g.file(f)
		for _, m := range g.out {
			if seenSrc[string(m.src)] {
				continue
			}
			seenSrc[string(m.src)] = true
			k := m.key()
			seenKey[k]++
			if n := seenKey[k]; n > 1 {
				m.to += " #" + strconv.Itoa(n)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

type fileGen struct {
	path     string
	src      []byte
	tf       *token.File
	comments []*ast.CommentGroup
	fn       string
	out      []mutant
}

func (g *fileGen) off(p token.Pos) int { return g.tf.Offset(p) }

func (g *fileGen) file(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			g.fn = funcName(d)
			g.returnEarly(d)
			g.body(d)
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, s := range d.Specs {
				vs := s.(*ast.ValueSpec)
				g.fn = d.Tok.String() + " " + vs.Names[0].Name
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if lit, ok := n.(*ast.BasicLit); ok {
							g.constant(lit, vs)
						}
						return true
					})
				}
			}
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = "*", s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star != "" {
		return "(*" + name + ")." + d.Name.Name
	}
	return name + "." + d.Name.Name
}

// body walks a function body for every operator but return.
func (g *fileGen) body(d *ast.FuncDecl) {
	var last ast.Stmt
	if n := len(d.Body.List); n > 0 {
		last = d.Body.List[n-1]
	}
	var stack []ast.Node
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			g.relational(n)
		case *ast.IfStmt:
			g.negate(n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				g.negate(n.Cond)
			}
		case *ast.BasicLit:
			g.constant(n, parent)
		case *ast.BlockStmt:
			g.deletions(last, n.List)
		case *ast.CaseClause:
			g.deletions(last, n.Body)
		case *ast.CommClause:
			g.deletions(last, n.Body)
		}
		stack = append(stack, n)
		return true
	})
}

var flip = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

func (g *fileGen) relational(b *ast.BinaryExpr) {
	to, ok := flip[b.Op]
	if !ok {
		return
	}
	at := g.off(b.OpPos)
	g.add(opRelational, b, span{at, at + len(b.Op.String()), to.String()})
}

// negate wraps a condition in !( ). A lone == or != is skipped: the
// relational operator already yields its negation.
func (g *fileGen) negate(cond ast.Expr) {
	if b, ok := cond.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
		return
	}
	s, e := g.off(cond.Pos()), g.off(cond.End())
	g.add(opNegate, cond, span{s, s, "!("}, span{e, e, ")"})
}

// constant moves an integer literal by one; the site text is the
// literal's parent expression or simple statement.
func (g *fileGen) constant(lit *ast.BasicLit, parent ast.Node) {
	if lit.Kind != token.INT {
		return
	}
	v, err := strconv.ParseUint(lit.Value, 0, 64)
	if err != nil {
		return
	}
	switch v {
	case 0:
		v = 1
	case 1:
		v = 0
	default:
		v++
	}
	text := strconv.FormatUint(v, 10)
	if strings.HasPrefix(lit.Value, "0x") || strings.HasPrefix(lit.Value, "0X") {
		text = "0x" + strconv.FormatUint(v, 16)
	}
	site := ast.Node(lit)
	switch parent.(type) {
	case ast.Expr, *ast.AssignStmt, *ast.ReturnStmt, *ast.ValueSpec, *ast.IncDecStmt:
		site = parent
	}
	g.add(opConstant, site, span{g.off(lit.Pos()), g.off(lit.End()), text})
}

// deletions removes each statement of a list in turn, except those
// whose removal cannot compile: declarations, labels, and last, the
// function's final statement, when it is a return.
func (g *fileGen) deletions(last ast.Stmt, list []ast.Stmt) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.DeclStmt, *ast.LabeledStmt, *ast.EmptyStmt:
			continue
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				continue
			}
		case *ast.ReturnStmt:
			if ast.Stmt(s) == last {
				continue
			}
		}
		m := g.mutant(opDelete, s, span{g.off(s.Pos()), g.off(s.End()), ""})
		m.to = "(deleted)"
		g.out = append(g.out, m)
	}
}

// returnEarly inserts a return of zero values at the function's entry.
func (g *fileGen) returnEarly(d *ast.FuncDecl) {
	if len(d.Body.List) == 0 {
		return
	}
	ret := "return"
	if res := d.Type.Results; res != nil && len(res.List) > 0 && len(res.List[0].Names) == 0 {
		var zeros []string
		for _, f := range res.List {
			zeros = append(zeros, "*new("+g.text(f.Type)+")")
		}
		ret += " " + strings.Join(zeros, ", ")
	}
	at := g.off(d.Body.Lbrace) + 1
	m := g.mutant(opReturn, nil, span{at, at, ret + ";"})
	m.from, m.to = "(entry)", ret
	g.out = append(g.out, m)
}

func (g *fileGen) add(op string, site ast.Node, edits ...span) {
	g.out = append(g.out, g.mutant(op, site, edits...))
}

func (g *fileGen) mutant(op string, site ast.Node, edits ...span) mutant {
	m := mutant{file: g.path, fn: g.fn, op: op, src: splice(g.src, 0, edits)}
	if site != nil {
		m.from = g.render(site, nil)
		m.to = g.render(site, edits)
	}
	return m
}

func (g *fileGen) text(n ast.Node) string {
	return string(g.src[g.off(n.Pos()):g.off(n.End())])
}

// render prints a site on one line with the edits applied, comments
// dropped and nested blocks that hold no edit shortened to {…}.
func (g *fileGen) render(site ast.Node, edits []span) string {
	start, end := g.off(site.Pos()), g.off(site.End())
	spans := append([]span(nil), edits...)
	// inEdit reports whether an edit covers [s, e); blocks and comments
	// inside a deleted statement go with it.
	inEdit := func(s, e int) bool {
		for _, ed := range edits {
			if ed.start <= s && e <= ed.end {
				return true
			}
		}
		return false
	}
	ast.Inspect(site, func(n ast.Node) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok || n == site {
			return true
		}
		bs, be := g.off(b.Pos()), g.off(b.End())
		for _, e := range edits {
			if bs <= e.start && e.end <= be {
				return true
			}
		}
		if !inEdit(bs, be) {
			spans = append(spans, span{bs, be, "{…}"})
		}
		return false
	})
	for _, c := range g.comments {
		cs, ce := g.off(c.Pos()), g.off(c.End())
		if start <= cs && ce <= end && !inEdit(cs, ce) && !inSpans(spans, cs) {
			spans = append(spans, span{cs, ce, ""})
		}
	}
	text := splice(g.src[start:end], start, spans)
	return strings.Join(strings.Fields(string(text)), " ")
}

// inSpans reports whether offset at falls inside one of spans.
func inSpans(spans []span, at int) bool {
	for _, s := range spans {
		if s.start <= at && at < s.end {
			return true
		}
	}
	return false
}

// splice applies non-overlapping spans, given in file offsets, to src,
// which begins at file offset base.
func splice(src []byte, base int, spans []span) []byte {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var out []byte
	at := 0
	for _, s := range spans {
		out = append(out, src[at:s.start-base]...)
		out = append(out, s.text...)
		at = s.end - base
	}
	return append(out, src[at:]...)
}

// Classes, in the order a ledger lists them.
type class int

const (
	killed     class = iota // a unit test of the package failed
	goldenOnly              // only a golden digest test failed
	survived                // every test passed
	timedOut                // a test binary hit its timeout
	dropped                 // the mutant does not compile
)

var classNames = [...]string{"killed", "golden-only", "survived", "timed out", "dropped"}

func (c class) String() string { return classNames[c] }

type outcome struct {
	class class
	by    string // the failing test, or the first compiler error
}

// suite is one package's tests, run as a prebuilt test binary.
type suite struct {
	pkg     string        // package directory, relative to the module root
	run     string        // -test.run pattern; empty runs every test
	timeout time.Duration // per run of the test binary
}

// runner builds and runs mutants of one package.
type runner struct {
	root   string   // module root
	env    []string // environment of every go command and test binary
	tmp    string   // holds the mutated file, the overlay and the binaries
	unit   suite    // the mutated package's own tests
	golden suite    // the digest tests, run only when the unit tests pass
}

// baseline checks that both suites pass unmutated and sets each
// suite's timeout from its measured run time.
func (r *runner) baseline() error {
	for _, s := range []*suite{&r.unit, &r.golden} {
		bin, err := r.build(*s, "")
		if err != nil {
			return fmt.Errorf("building %s: %v", s.pkg, err)
		}
		s.timeout = 10 * time.Minute
		start := time.Now()
		if o := r.exec(*s, bin); o.class != survived {
			return fmt.Errorf("%s fails unmutated (%s: %s)", s.pkg, o.class, o.by)
		}
		s.timeout = max(10*time.Second, 10*time.Since(start))
	}
	return nil
}

// classify builds and runs one mutant.
func (r *runner) classify(m mutant) (outcome, error) {
	mfile := filepath.Join(r.tmp, "mutant.go")
	if err := os.WriteFile(mfile, m.src, 0o644); err != nil {
		return outcome{}, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {m.file: mfile}})
	if err != nil {
		return outcome{}, err
	}
	ofile := filepath.Join(r.tmp, "overlay.json")
	if err := os.WriteFile(ofile, overlay, 0o644); err != nil {
		return outcome{}, err
	}
	for i, s := range []suite{r.unit, r.golden} {
		bin, err := r.build(s, ofile)
		var ce compileError
		if errors.As(err, &ce) {
			return outcome{dropped, string(ce)}, nil
		} else if err != nil {
			return outcome{}, err
		}
		o := r.exec(s, bin)
		if o.class == killed && i == 1 {
			o.class = goldenOnly
		}
		if o.class != survived {
			return o, nil
		}
	}
	return outcome{class: survived}, nil
}

type compileError string

func (e compileError) Error() string { return string(e) }

// build compiles a suite's test binary, through the overlay if one is
// given. A compiler error is returned as a compileError.
func (r *runner) build(s suite, overlay string) (string, error) {
	bin := filepath.Join(r.tmp, filepath.Base(s.pkg)+".test")
	args := []string{"test", "-c", "-vet=off", "-o", bin}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.Command("go", append(args, "./"+s.pkg)...)
	cmd.Dir = r.root
	cmd.Env = r.env
	out, err := cmd.CombinedOutput()
	if err == nil {
		return bin, nil
	}
	if overlay == "" {
		return "", fmt.Errorf("%v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			_, msg, _ := strings.Cut(line, ": ")
			return "", compileError(msg)
		}
	}
	return "", compileError(strings.TrimSpace(string(out)))
}

// exec runs a test binary in its package directory. The binary stops
// itself at its -test.timeout; if it hangs a minute past that, it is
// killed.
func (r *runner) exec(s suite, bin string) outcome {
	args := []string{"-test.failfast", "-test.timeout=" + s.timeout.String()}
	if s.run != "" {
		args = append(args, "-test.run="+s.run)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout+time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = filepath.Join(r.root, s.pkg)
	cmd.Env = r.env
	out, err := cmd.CombinedOutput()
	if err == nil {
		return outcome{class: survived}
	}
	return parseFailure(string(out), ctx.Err() != nil)
}

// parseFailure names the test that failed a run.
func parseFailure(out string, expired bool) outcome {
	if expired {
		return outcome{timedOut, "(killed)"}
	}
	if i := strings.Index(out, "panic: test timed out"); i >= 0 {
		by := "(timeout)"
		if _, rest, ok := strings.Cut(out[i:], "running tests:\n"); ok {
			by = strings.Fields(rest)[0]
		}
		return outcome{timedOut, by}
	}
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			name, _, _ = strings.Cut(name, "/")
			return outcome{killed, name}
		}
	}
	// A panic off the test goroutine, or a fatal runtime error, ends
	// the binary without naming a test.
	for _, prefix := range []string{"panic: ", "fatal error: "} {
		if i := strings.Index(out, prefix); i >= 0 {
			line, _, _ := strings.Cut(out[i:], "\n")
			return outcome{killed, "(" + line + ")"}
		}
	}
	return outcome{killed, "(exit)"}
}

// result is one classified mutant.
type result struct {
	mutant
	outcome
}

// campaign classifies every mutant of r.unit's package in source
// order, calling progress after each one.
func (r *runner) campaign(progress func(i, n int, res result)) ([]result, error) {
	ms, err := generate(filepath.Join(r.root, r.unit.pkg))
	if err != nil {
		return nil, err
	}
	if err := r.baseline(); err != nil {
		return nil, err
	}
	var out []result
	for i, m := range ms {
		o, err := r.classify(m)
		if err != nil {
			return nil, err
		}
		res := result{m, o}
		out = append(out, res)
		if progress != nil {
			progress(i+1, len(ms), res)
		}
	}
	return out, nil
}
