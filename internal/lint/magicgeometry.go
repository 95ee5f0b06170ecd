package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// MagicGeometry flags hardcoded cache-geometry arithmetic (64, 4096,
// shift-by-6/12, masks 63/4095) applied to address-flavoured operands
// outside internal/mem. Every prefetcher must derive geometry from
// mem.LineBytes / mem.LineShift / mem.PageOffsetBits or a mem.Region,
// so that region-size sweeps (paper §V-C) cannot silently diverge from
// an implementation that baked in 4KB pages.
var MagicGeometry = &Analyzer{
	Name: "magicgeometry",
	Doc: "flags hardcoded 64/6/4096/12 address arithmetic outside internal/mem; " +
		"use mem.LineBytes, mem.LineShift, mem.PageOffsetBits or mem.Region helpers",
	Run: runMagicGeometry,
}

// geometry literal values per operator class.
var (
	shiftGeometry = map[int64]string{
		6:  "mem.LineShift (or mem.PageOffsetBits for offset packing)",
		12: "mem.PageShift",
	}
	maskGeometry = map[int64]string{
		63:   "mem.LinesPerPage-1 (or a mem.Region mask)",
		4095: "mem.PageBytes-1",
	}
	scaleGeometry = map[int64]string{
		64:   "mem.LineBytes (or mem.LinesPerPage)",
		4096: "mem.PageBytes",
	}
)

func runMagicGeometry(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.ImportPath, "internal/mem") {
		return // mem defines the geometry; literals are legitimate there
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var table map[int64]string
			switch be.Op {
			case token.SHL, token.SHR:
				table = shiftGeometry
			case token.AND, token.AND_NOT, token.OR:
				table = maskGeometry
			case token.QUO, token.REM, token.MUL:
				table = scaleGeometry
			default:
				return true
			}
			// Whole-expression constants (e.g. "65 * 64" buffer sizing in
			// a make call) are not address arithmetic.
			if tv, ok := pass.Pkg.Info.Types[be]; ok && tv.Value != nil {
				return true
			}
			lit, subject := literalOperand(be.X, be.Y)
			if lit == nil {
				return true
			}
			v, err := strconv.ParseInt(lit.Value, 0, 64)
			if err != nil {
				return true
			}
			want, geometric := table[v]
			if !geometric {
				return true
			}
			if !addressFlavoured(pass.Pkg, subject) {
				return true
			}
			pass.Reportf(be.Pos(), "hardcoded geometry literal %s in %q; use %s",
				lit.Value, exprString(pass.Pkg.Fset, be), want)
			return true
		})
	}
}

// literalOperand returns the basic integer literal among (x, y) and the
// other operand, or nil when neither side is a literal. Only syntactic
// literals count: named constants like mem.LineBytes are the fix, not
// the offence.
func literalOperand(x, y ast.Expr) (*ast.BasicLit, ast.Expr) {
	if l, ok := ast.Unparen(x).(*ast.BasicLit); ok && l.Kind == token.INT {
		return l, y
	}
	if l, ok := ast.Unparen(y).(*ast.BasicLit); ok && l.Kind == token.INT {
		return l, x
	}
	return nil, nil
}

// addressFlavoured reports whether the expression plausibly carries an
// address: its static type is mem.Addr, it converts a mem.Addr, or it
// mentions an identifier whose name is address vocabulary (addr, line,
// page, region, offset, trigger, pc...).
func addressFlavoured(pkg *Package, e ast.Expr) bool {
	return isMemAddr(pkg.Info.Types[e].Type) ||
		mentions(e, []string{"addr", "line", "page", "region", "offset", "trigger"}, "pc", "off") ||
		contains(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				// Look through conversions like uint64(lineAddr).
				return len(x.Args) == 1 && isMemAddr(pkg.Info.Types[x.Args[0]].Type)
			case *ast.Ident:
				// pc32, pcHash: "pc" followed by a digit or an uppercase
				// word start.
				if len(x.Name) > 2 && strings.HasPrefix(x.Name, "pc") {
					c := x.Name[2]
					return c >= '0' && c <= '9' || c >= 'A' && c <= 'Z'
				}
			}
			return false
		})
}

// isMemAddr reports whether t is the mem.Addr named type.
func isMemAddr(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Addr" && obj.Pkg() != nil && obj.Pkg().Name() == "mem"
}
