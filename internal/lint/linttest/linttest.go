// Package linttest is the analysistest-equivalent harness for the
// pmplint analyzer suite: it type-checks a fixture directory against
// the repository's real packages and compares the diagnostics an
// analyzer reports with the `// want "regexp"` comments in the
// fixtures.
//
// Fixture files live under testdata/<analyzer>/ (ignored by the go
// tool) and may import any package in the module's dependency closure,
// including pmp/internal/mem and pmp/internal/prefetch. Each
// subdirectory of a fixture holds one more package, type-checked on
// its own as the loader checks every package of the module, so a
// fixture can put an interface and its implementations in different
// type-check universes.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pmp/internal/lint"
)

var (
	indexOnce sync.Once
	index     map[string]string
	indexErr  error
)

// exportIndex lazily builds (once per test binary) the export-data
// index for the whole module, so fixtures can import repo packages.
func exportIndex(t *testing.T) map[string]string {
	t.Helper()
	indexOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			indexErr = err
			return
		}
		// time and math/rand ride along for the determinism fixtures,
		// which need to import them even though the repository itself
		// (deliberately) never pulls in math/rand.
		index, indexErr = lint.ExportIndex(root, "./...", "time", "math/rand")
	})
	if indexErr != nil {
		t.Fatalf("building export index: %v", indexErr)
	}
	return index
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// Run type-checks every .go file in fixtureDir as one package (and each
// subdirectory as another), applies the analyzer, and fails the test on
// any mismatch between reported diagnostics and want comments.
func Run(t *testing.T, a *lint.Analyzer, fixtureDir string) {
	t.Helper()
	RunAt(t, a, fixtureDir, "pmp/fixture/"+a.Name)
}

// RunAt is Run with an explicit fixture import path, for analyzers
// whose rules are scoped by package path (determinism applies its
// wall-clock rule only under internal/sim, internal/core and
// internal/sweep).
func RunAt(t *testing.T, a *lint.Analyzer, fixtureDir, importPath string) {
	t.Helper()
	pkgs := loadFixture(t, fixtureDir, importPath)
	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags := lint.Run(pkgs, []*lint.Analyzer{a})

	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// loadFixture type-checks the .go files of dir as the package
// importPath, then each subdirectory holding .go files as the package
// importPath/<name>, every one in its own type-check universe.
func loadFixture(t *testing.T, dir, importPath string) []*lint.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixtures: %v", err)
	}
	var files []string
	var pkgs []*lint.Package
	for _, e := range entries {
		switch {
		case e.IsDir():
			pkgs = append(pkgs, loadFixture(t, filepath.Join(dir, e.Name()), importPath+"/"+e.Name())...)
		case strings.HasSuffix(e.Name(), ".go"):
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.TypecheckPackage(importPath, abs, files, exportIndex(t), nil)
	if err != nil {
		t.Fatalf("typechecking fixtures: %v", err)
	}
	return append([]*lint.Package{pkg}, pkgs...)
}

// collectWants extracts `// want "regexp"` (or backquoted) comments.
func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				rest = strings.TrimSpace(rest)
				pattern, err := strconv.Unquote(rest)
				if err != nil {
					t.Fatalf("malformed want comment %q: %v", c.Text, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// Fixture computes the conventional fixture directory for an analyzer.
func Fixture(a *lint.Analyzer) string { return filepath.Join("testdata", a.Name) }
