package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File // non-test source files, in GoFiles order
	Types      *types.Package
	Info       *types.Info

	ignores map[string][]*directiveLine
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// list runs `go list -e -export -deps -json` for the patterns, from
// the root of the module that contains dir, and returns the decoded
// packages (dependency closure included).
func list(dir string, patterns []string) ([]listedPackage, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// moduleRoot returns the nearest directory at or above dir that holds
// a go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
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

// Load parses and type-checks every non-test package of the module
// that contains dir, from source, importing their dependencies from
// export data. It always loads the whole module: the call graph needs
// every package, or a hot root or a sink outside a subset would hide
// the findings it implies.
//
// Loading shells out to the go tool exactly once; dependencies are
// imported from the toolchain's export data rather than re-type-checked,
// which keeps a whole-repo lint run well under a second.
func Load(dir string) ([]*Package, error) {
	listed, err := list(dir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	exports := map[string]string{} // import path -> export data file
	var targets []*listedPackage
	for i := range listed {
		lp := &listed[i]
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.Standard && !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(t.ImportPath, t.Dir, t.GoFiles, lookupFunc(exports, t.ImportMap))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ExportIndex returns the import-path -> export-data-file map for the
// patterns' full dependency closure, with patterns resolved from the
// root of the module that contains dir. Test harnesses use it to
// type-check fixture files against the repository's real packages.
func ExportIndex(dir string, patterns ...string) (map[string]string, error) {
	listed, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports, nil
}

// TypecheckPackage parses and type-checks the given files as one
// package, resolving imports through the export index.
func TypecheckPackage(importPath, dir string, files []string, exports, importMap map[string]string) (*Package, error) {
	return typecheck(importPath, dir, files, lookupFunc(exports, importMap))
}

// lookupFunc resolves import paths to export data readers, honouring
// the package's ImportMap (vendoring / module version indirections).
func lookupFunc(exports map[string]string, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// typecheck parses the given files and type-checks them against export
// data supplied by lookup.
func typecheck(importPath, dir string, files []string, lookup func(string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	var syntax []*ast.File
	for _, name := range files {
		path := name
		if dir != "" && !strings.HasPrefix(name, "/") {
			path = dir + "/" + name
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      syntax,
		Types:      tpkg,
		Info:       info,
	}
	pkg.collectIgnores()
	return pkg, nil
}
