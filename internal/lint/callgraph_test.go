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

func assertEdge(t *testing.T, prog *Program, caller, callee string, kind EdgeKind) {
	t.Helper()
	from := prog.FuncByName(caller)
	if from == nil {
		t.Fatalf("no node for %s", caller)
	}
	for _, e := range from.Callees {
		if e.Callee.Key == callee && e.Kind == kind {
			return
		}
	}
	t.Errorf("no edge %s -> %s of kind %d; have %d callees", caller, callee, kind, len(from.Callees))
	for _, e := range from.Callees {
		t.Logf("  callee %s kind %d", e.Callee.Key, e.Kind)
	}
}

func TestCallGraphEdges(t *testing.T) {
	prog := loadCallgraphFixture(t)

	assertEdge(t, prog, cgPath+".caller", cgPath+".helper", EdgeStatic)
	assertEdge(t, prog, cgPath+".caller", "(*"+cgPath+".device).method", EdgeMethod)
	// Interface dispatch: one edge to the interface method itself, one
	// per implementation.
	assertEdge(t, prog, cgPath+".caller", "("+cgPath+".actor).act", EdgeInterface)
	assertEdge(t, prog, cgPath+".caller", "(*"+cgPath+".device).act", EdgeInterface)
	// Methods resolve transitively too.
	assertEdge(t, prog, "(*"+cgPath+".device).method", cgPath+".helper", EdgeStatic)
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
		assertEdge(t, prog, drive, callee, EdgeInterface)
		if _, _, hot := prog.HotPath(prog.FuncByName(callee)); !hot {
			t.Errorf("%s should be hot through interface dispatch", callee)
		}
	}
	mistyped := "(*" + cgPath + "/fill.Mistyped).OnFill"
	for _, e := range prog.FuncByName(drive).Callees {
		if e.Callee.Key == mistyped {
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

// pingFact is a test fact for the store round-trip.
type pingFact struct{ N int }

func (*pingFact) AFact() {}

func TestFactStore(t *testing.T) {
	prog := loadCallgraphFixture(t)
	fn := prog.FuncByName(cgPath + ".helper")
	if fn == nil {
		t.Fatal("no node for helper")
	}
	var got pingFact
	if prog.ImportFact(fn, &got) {
		t.Fatal("ImportFact before ExportFact should report false")
	}
	prog.ExportFact(fn, &pingFact{N: 7})
	if !prog.ImportFact(fn, &got) || got.N != 7 {
		t.Fatalf("ImportFact = %v, want N=7", got)
	}
	// Facts are keyed per function: other nodes stay empty.
	var other pingFact
	if prog.ImportFact(prog.FuncByName(cgPath+".orphan"), &other) {
		t.Fatal("fact leaked to an unrelated function")
	}
}

// TestBottomUpOrder asserts callees are visited before their callers.
func TestBottomUpOrder(t *testing.T) {
	prog := loadCallgraphFixture(t)
	seen := map[string]int{}
	order := 0
	prog.BottomUp(func(fn *Func) {
		seen[fn.Key] = order
		order++
	})
	if seen[cgPath+".helper"] > seen[cgPath+".caller"] {
		t.Errorf("helper visited at %d, after caller at %d", seen[cgPath+".helper"], seen[cgPath+".caller"])
	}
	if seen[cgPath+".helper"] > seen["(*"+cgPath+".device).method"] {
		t.Error("helper should be visited before its caller (*device).method")
	}
}
