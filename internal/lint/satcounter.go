package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SatCounter flags bare ++/--/+=/-= on struct fields documented or
// named as saturating counters. Hardware confidence counters clamp at
// their ceiling; an unguarded increment models an impossible counter
// width and eventually wraps, so marked fields must be updated behind a
// ceiling comparison or through the mem.SatInc/mem.SatDec helpers.
var SatCounter = &Analyzer{
	Name: "satcounter",
	Doc: "flags unguarded ++/--/+=/-= on fields marked as saturating counters; " +
		"guard against the ceiling or use mem.SatInc/mem.SatDec",
	Run: runSatCounter,
}

func runSatCounter(pass *Pass) {
	marked := markedSaturating(pass.Pkg)
	if len(marked) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			var lhs ast.Expr
			var op string
			switch s := n.(type) {
			case *ast.IncDecStmt:
				lhs = s.X
				op = s.Tok.String()
			case *ast.AssignStmt:
				if s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN || len(s.Lhs) != 1 {
					return true
				}
				lhs = s.Lhs[0]
				op = s.Tok.String()
			default:
				return true
			}
			field := fieldObject(pass.Pkg.Info, lhs)
			if field == nil || !marked[field] {
				return true
			}
			target := exprString(pass.Pkg.Fset, lhs)
			if dominated(stack, n, compares(pass.Pkg.Fset, target)) {
				return true
			}
			pass.Reportf(n.Pos(), "unguarded %q on saturating counter %s; "+
				"compare against its ceiling first or use mem.SatInc/mem.SatDec", op, target)
			return true
		})
	}
}

// fieldObject resolves the updated expression to the struct field it
// touches, looking through indexing (scores[i]++) and pointer derefs.
func fieldObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			obj := info.Uses[x.Sel]
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		case *ast.Ident:
			obj := info.Uses[x]
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// markedSaturating collects the field objects whose declaration marks
// them as saturating: "saturat..." in the doc or line comment, or a
// name containing "sat" as a word prefix ("satConf", "confSat").
func markedSaturating(pkg *Package) map[types.Object]bool {
	marked := map[types.Object]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !saturatingMark(field) {
					continue
				}
				for _, name := range field.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

func saturatingMark(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(strings.ToLower(cg.Text()), "saturat") {
			return true
		}
	}
	for _, name := range field.Names {
		lower := strings.ToLower(name.Name)
		if strings.HasPrefix(lower, "sat") || strings.HasSuffix(lower, "sat") {
			return true
		}
	}
	return false
}
