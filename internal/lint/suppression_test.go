package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const hygieneSrc = `package p

type q struct {
	queue []int
	limit int
}

// used suppresses a real capacity finding: no hygiene report.
func used(s *q, v int) {
	//lint:ignore capacity fixture exercises a used directive
	s.queue = append(s.queue, v)
}

//lint:ignore magicgeometry nothing here triggers it
func stale() {}

//pmp:hotpath
func hot(s *q) {
	//pmp:allocok stale annotation: the append below is capacity-guarded anyway
	if len(s.queue) < s.limit {
		s.queue = append(s.queue, 1)
	}
}
`

func typecheckHygieneSrc(t *testing.T) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(hygieneSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := TypecheckPackage("pmp/fixture/hygiene", dir, []string{"f.go"}, nil, nil)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return pkg
}

// TestUnusedDirectiveHygiene: a full-suite run reports exactly the two
// stale directives (and nothing for the used one), in sorted order.
func TestUnusedDirectiveHygiene(t *testing.T) {
	diags := Run([]*Package{typecheckHygieneSrc(t)}, Analyzers())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 stale-directive reports: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != UnusedIgnoreName {
			t.Errorf("diagnostic %s has analyzer %q, want %q", d, d.Analyzer, UnusedIgnoreName)
		}
	}
	if !strings.Contains(diags[0].Message, "//lint:ignore magicgeometry") {
		t.Errorf("first diagnostic should name the stale ignore, got %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "//pmp:allocok") {
		t.Errorf("second diagnostic should name the stale allocok, got %q", diags[1].Message)
	}
	if diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Errorf("diagnostics not in line order: %d then %d", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

// A partial -analyzers run can never prove a directive stale: only
// directives whose named analyzers all ran are judged.
func TestUnusedDirectivePartialRun(t *testing.T) {
	partial, err := ByName([]string{"capacity", "hotalloc"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{typecheckHygieneSrc(t)}, partial)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "//pmp:allocok") {
		t.Fatalf("partial run should judge only the allocok annotation, got %v", diags)
	}
}

// TestSortDiagnostics pins the canonical total order and duplicate
// suppression.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: file, Line: line, Column: col}, Message: msg}
	}
	in := []Diagnostic{
		mk("b.go", 1, 1, "capacity", "z"),
		mk("a.go", 9, 2, "cyclemath", "y"),
		mk("a.go", 9, 2, "capacity", "x"),
		mk("a.go", 9, 2, "capacity", "x"), // duplicate
		mk("a.go", 2, 5, "satcounter", "w"),
	}
	out := sortDiagnostics(in)
	if len(out) != 4 {
		t.Fatalf("got %d diagnostics, want 4 after dedup", len(out))
	}
	want := []string{
		"a.go:2:5: [satcounter] w",
		"a.go:9:2: [capacity] x",
		"a.go:9:2: [cyclemath] y",
		"b.go:1:1: [capacity] z",
	}
	for i, d := range out {
		if d.String() != want[i] {
			t.Errorf("position %d: got %s, want %s", i, d, want[i])
		}
	}
}
