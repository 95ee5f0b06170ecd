package lint

import (
	"go/ast"
	"testing"
)

func TestByName(t *testing.T) {
	all, err := ByName(nil)
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(nil) = %d analyzers, err %v", len(all), err)
	}
	one, err := ByName([]string{"magicgeometry"})
	if err != nil || len(one) != 1 || one[0] != MagicGeometry {
		t.Fatalf("ByName(magicgeometry) = %v, err %v", one, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}

func TestIgnoreDirective(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//lint:ignore magicgeometry fixture reason", []string{"magicgeometry"}, true},
		{"//lint:ignore cyclemath,satcounter both need it", []string{"cyclemath", "satcounter"}, true},
		{"//lint:ignore all everything", []string{"all"}, true},
		{"//lint:ignore magicgeometry", nil, false}, // no reason: malformed
		{"// ordinary comment", nil, false},
	}
	for _, c := range cases {
		names, ok := ignoreDirective(&ast.Comment{Text: c.text})
		if ok != c.ok {
			t.Errorf("ignoreDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("ignoreDirective(%q) = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("ignoreDirective(%q) = %v, want %v", c.text, names, c.names)
			}
		}
	}
}

// TestRepoIsClean is the repo-wide gate in test form: the analyzer
// suite must report nothing on the repository itself. This is what
// `go run ./cmd/pmplint` checks in CI; having it as a test too means
// plain `go test ./...` catches regressions.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("Load found only %d packages; loader is missing targets", len(pkgs))
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("repo violation: %s", d)
	}
}
