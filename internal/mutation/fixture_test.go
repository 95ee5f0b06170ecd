package mutation

import (
	"os"
	"strings"
	"testing"
)

// TestDriverOnFixture runs the whole driver on a two-function package
// whose every mutant has a known class: killed by its unit test, killed
// only by the stand-in digest test, survived, or dropped.
func TestDriverOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dozen test binaries")
	}
	const pkg = "internal/mutation/testdata/fixture"
	r := &runner{
		root:   moduleRoot(t),
		env:    os.Environ(),
		tmp:    t.TempDir(),
		unit:   suite{pkg: pkg},
		golden: suite{pkg: pkg + "/golden", run: "^TestGolden"},
	}
	results, err := r.campaign(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]outcome{
		"Max\treturn\t(entry)\treturn *new(int)": {killed, "TestMax"},
		"Max\trelational\ta < b\ta <= b":         {survived, ""},
		"Max\tnegate\ta < b\t!(a < b)":           {killed, "TestMax"},
		"Max\tdelete\tif a < b {…}\t(deleted)":   {killed, "TestMax"},
		"Max\tdelete\treturn b\t(deleted)":       {killed, "TestMax"},
		"Double\treturn\t(entry)\treturn":        {goldenOnly, "TestGoldenDouble"},
		"Double\tconstant\tx * 2\tx * 3":         {goldenOnly, "TestGoldenDouble"},
		"Double\tdelete\tout = v\t(deleted)":     {dropped, "declared and not used: v"},
	}
	for _, res := range results {
		w, ok := want[res.key()]
		if !ok {
			t.Errorf("unexpected mutant %q (%s)", res.key(), res.class)
			continue
		}
		delete(want, res.key())
		if res.outcome != w {
			t.Errorf("%q: got %s by %q, want %s by %q", res.key(), res.class, res.by, w.class, w.by)
		}
	}
	for key := range want {
		t.Errorf("mutant %q not generated", key)
	}

	equiv, err := parseEquivalents(strings.NewReader(
		"# the fixture's one survivor\n" +
			pkg + "\tMax\trelational\ta < b\ta <= b\tat a == b both branches return the same value\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	unexplained := ledger{pkg: pkg, results: results, equiv: equiv[pkg]}.write(&out)
	if len(unexplained) != 2 {
		t.Errorf("unexplained = %q, want the two golden-only kills", unexplained)
	}
	for _, line := range []string{
		"equivalent\tMax\trelational\ta < b\ta <= b\tat a == b both branches return the same value",
		"UNEXPLAINED\tDouble\tconstant\tx * 2\tx * 3\tby TestGoldenDouble",
		"# total                 4           2           1           0           1",
		"    4 TestMax",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("ledger lacks line %q:\n%s", line, out.String())
		}
	}
}
