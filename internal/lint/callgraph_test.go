package lint

import "testing"

const cgPath = "pmp/fixture/callgraph"

func loadCallgraphFixture(t *testing.T) *Program {
	t.Helper()
	pkg, err := TypecheckPackage(cgPath, "testdata/callgraph", []string{"fixture.go"}, nil, nil)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	return NewProgram([]*Package{pkg})
}

func assertEdge(t *testing.T, prog *Program, caller, callee string) {
	t.Helper()
	from := prog.FuncByName(caller)
	if from == nil {
		t.Fatalf("no node for %s", caller)
	}
	for _, c := range from.Callees {
		if c.Key == callee {
			return
		}
	}
	t.Errorf("no edge %s -> %s; have %d callees", caller, callee, len(from.Callees))
	for _, c := range from.Callees {
		t.Logf("  callee %s", c.Key)
	}
}

func TestCallGraphEdges(t *testing.T) {
	prog := loadCallgraphFixture(t)

	assertEdge(t, prog, cgPath+".caller", cgPath+".helper")
	assertEdge(t, prog, cgPath+".caller", "(*"+cgPath+".device).method")
	// Interface dispatch: one edge to the interface method itself, one
	// per implementation.
	assertEdge(t, prog, cgPath+".caller", "("+cgPath+".actor).act")
	assertEdge(t, prog, cgPath+".caller", "(*"+cgPath+".device).act")
	// Methods resolve transitively too.
	assertEdge(t, prog, "(*"+cgPath+".device).method", cgPath+".helper")
}

// TestCallGraphCrossPackageDispatch type-checks a dispatch site and its
// implementations as separate packages, as the loader does with the
// simulator and the prefetchers. Implementations whose parameters are
// unnamed or blank must still receive the dispatch edge; one whose
// parameter type differs must not.
func TestCallGraphCrossPackageDispatch(t *testing.T) {
	exports, err := ExportIndex("../..", "pmp/internal/mem")
	if err != nil {
		t.Fatalf("export index: %v", err)
	}
	var pkgs []*Package
	for _, name := range []string{"sink", "fill"} {
		pkg, err := TypecheckPackage(cgPath+"/"+name, "testdata/callgraph/"+name, []string{name + ".go"}, exports, nil)
		if err != nil {
			t.Fatalf("typechecking %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := NewProgram(pkgs)

	drive := cgPath + "/sink.Drive"
	for _, impl := range []string{"Unnamed", "Blank"} {
		callee := "(*" + cgPath + "/fill." + impl + ").OnFill"
		assertEdge(t, prog, drive, callee)
		if _, _, hot := prog.HotPath(prog.FuncByName(callee)); !hot {
			t.Errorf("%s should be hot through interface dispatch", callee)
		}
	}
	mistyped := "(*" + cgPath + "/fill.Mistyped).OnFill"
	for _, c := range prog.FuncByName(drive).Callees {
		if c.Key == mistyped {
			t.Errorf("edge %s -> %s: a method with another parameter type is not an implementation", drive, mistyped)
		}
	}
}

func TestHotPathReachability(t *testing.T) {
	prog := loadCallgraphFixture(t)

	roots := prog.HotPathRoots()
	if len(roots) != 1 || roots[0].Key != cgPath+".caller" {
		t.Fatalf("HotPathRoots = %v, want exactly caller", roots)
	}
	if _, _, hot := prog.HotPath(roots[0]); !hot {
		t.Error("root should be hot-path reachable")
	}
	root, via, hot := prog.HotPath(prog.FuncByName(cgPath + ".helper"))
	if !hot || root == nil || root.Key != cgPath+".caller" {
		t.Errorf("helper: hot=%v root=%v, want hot via caller", hot, root)
	}
	if via == nil {
		t.Error("helper should record the caller it was discovered through")
	}
	// The interface implementation is hot through dispatch.
	if _, _, hot := prog.HotPath(prog.FuncByName("(*" + cgPath + ".device).act")); !hot {
		t.Error("(*device).act should be hot through interface dispatch")
	}
	if _, _, hot := prog.HotPath(prog.FuncByName(cgPath + ".orphan")); hot {
		t.Error("orphan must not be hot-path reachable")
	}
}

// TestReach pins both directions of the one graph walk: backward over
// the callers (how determinism finds what reaches a sink) and forward
// over the callees, recording the neighbour each function was first
// reached through (how hotalloc names the path in its diagnostics).
func TestReach(t *testing.T) {
	prog := loadCallgraphFixture(t)
	helper := prog.FuncByName(cgPath + ".helper")
	caller := prog.FuncByName(cgPath + ".caller")
	method := prog.FuncByName("(*" + cgPath + ".device).method")

	back := reach([]*Func{helper}, true)
	for _, fn := range []*Func{caller, method} {
		if s, ok := back[fn]; !ok || s.root != helper {
			t.Errorf("backward reach from helper: %s = %+v, %v; want reached from helper", fn.Key, s, ok)
		}
	}
	if _, ok := back[prog.FuncByName("(*"+cgPath+".device).act")]; ok {
		t.Error("backward reach from helper must not reach a callee of its callers")
	}

	fwd := reach([]*Func{caller}, false)
	if s, ok := fwd[helper]; !ok || s.root != caller || s.via != caller {
		t.Errorf("forward reach from caller: helper = %+v, %v; want root and via caller", s, ok)
	}
	if s := fwd[caller]; s.root != caller || s.via != nil {
		t.Errorf("forward reach from caller: root step = %+v; want root caller, no via", s)
	}
	if _, ok := fwd[prog.FuncByName(cgPath+".orphan")]; ok {
		t.Error("forward reach from caller must not reach orphan")
	}
}
