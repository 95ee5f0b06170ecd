package mutation

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	ledgerFlag = flag.Bool("ledger", false,
		"run the mutation campaign and write docs/mutation/<package>.txt")
	ledgerPkgs = flag.String("ledger.pkgs",
		"internal/core,internal/sms,internal/mem,internal/prefetchers/spp",
		"comma-separated package directories the -ledger campaign mutates")
)

// equivalentsPath lists the mutants that no test can kill, each with a
// reason.
const equivalentsPath = "testdata/equivalents.txt"

// goldenSuite is the simulator's digest check, run for every mutant the
// package's own tests let through.
var goldenSuite = suite{pkg: "internal/sim", run: "^TestGolden"}

// TestLedger runs the mutation campaign (about half an hour for the four
// default packages on 2 CPUs) and writes one ledger per package:
//
//	go test ./internal/mutation -run TestLedger -ledger -timeout 0 -v
func TestLedger(t *testing.T) {
	if !*ledgerFlag {
		t.Skip("mutation campaign runs only with -ledger")
	}
	root := moduleRoot(t)
	equiv := loadEquivalents(t)
	tmp := t.TempDir()
	// A build cache of the campaign's own: every overlay build adds
	// entries that no later build reuses, and TempDir removes it.
	env := append(os.Environ(), "GOCACHE="+filepath.Join(tmp, "gocache"))
	for _, pkg := range strings.Split(*ledgerPkgs, ",") {
		r := &runner{root: root, env: env, tmp: tmp, unit: suite{pkg: pkg}, golden: goldenSuite}
		start := time.Now()
		results, err := r.campaign(func(i, n int, res result) {
			t.Logf("%s [%d/%d] %-11s %s\t%s", pkg, i, n, res.class, res.key(), res.by)
		})
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		l := ledger{pkg: pkg, commit: commitOf(root, pkg), results: results, equiv: equiv[pkg],
			elapsed: time.Since(start).Round(time.Second)}
		out := filepath.Join(root, "docs", "mutation", filepath.Base(pkg)+".txt")
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		unexplained := l.write(f)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: wrote %s, %d unexplained", pkg, out, len(unexplained))
		for _, u := range unexplained {
			t.Logf("UNEXPLAINED %s\t%s", pkg, u)
		}
	}
}

// TestEquivalentsMatchSites keeps the equivalents list from going
// stale: every entry must still name a mutant the driver generates.
func TestEquivalentsMatchSites(t *testing.T) {
	root := moduleRoot(t)
	for pkg, entries := range loadEquivalents(t) {
		ms, err := generate(filepath.Join(root, pkg))
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		sites := map[string]bool{}
		for _, m := range ms {
			sites[m.key()] = true
		}
		for key := range entries {
			if !sites[key] {
				t.Errorf("%s: no mutant matches equivalent %q", pkg, key)
			}
		}
	}
}

// loadEquivalents reads equivalentsPath: per package, mutant key →
// reason.
func loadEquivalents(t *testing.T) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(equivalentsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	equiv, err := parseEquivalents(f)
	if err != nil {
		t.Fatalf("%s: %v", equivalentsPath, err)
	}
	return equiv
}

// parseEquivalents reads lines of six tab-separated fields: package,
// function, operator, site, mutated site, reason. Blank lines and
// lines starting with # are skipped.
func parseEquivalents(r io.Reader) (map[string]map[string]string, error) {
	equiv := map[string]map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 6 || strings.TrimSpace(f[5]) == "" {
			return nil, fmt.Errorf("line %d: want package, function, operator, site, mutant and reason separated by tabs", n)
		}
		if equiv[f[0]] == nil {
			equiv[f[0]] = map[string]string{}
		}
		key := strings.Join(f[1:5], "\t")
		if _, dup := equiv[f[0]][key]; dup {
			return nil, fmt.Errorf("line %d: duplicate entry", n)
		}
		equiv[f[0]][key] = f[5]
	}
	return equiv, sc.Err()
}

// ledger is one package's classified mutants.
type ledger struct {
	pkg     string
	commit  string
	results []result
	equiv   map[string]string // key → reason
	elapsed time.Duration
}

// write prints the ledger and returns the keys of the survivors and
// golden-only kills that no equivalent explains.
func (l ledger) write(w io.Writer) (unexplained []string) {
	counts := map[string]*[5]int{}
	var total [5]int
	byTest := map[string]int{}
	listed := map[class][]string{}
	var killedEquivalents []string
	for _, r := range l.results {
		if counts[r.op] == nil {
			counts[r.op] = new([5]int)
		}
		counts[r.op][r.class]++
		total[r.class]++
		key := r.key()
		reason, isEquiv := l.equiv[key]
		switch r.class {
		case killed:
			byTest[r.by]++
			listed[killed] = append(listed[killed], key+"\tby "+r.by)
			if isEquiv {
				killedEquivalents = append(killedEquivalents, key+"\tby "+r.by)
			}
		case survived, goldenOnly:
			line := key
			if r.class == goldenOnly {
				line += "\tby " + r.by
			}
			if isEquiv {
				line = "equivalent\t" + line + "\t" + reason
			} else {
				line = "UNEXPLAINED\t" + line
				unexplained = append(unexplained, key)
			}
			listed[r.class] = append(listed[r.class], line)
		default:
			listed[r.class] = append(listed[r.class], key+"\t"+r.by)
		}
	}

	fmt.Fprintf(w, "# Mutation ledger for %s (docs/mutation.md explains it).\n", l.pkg)
	fmt.Fprintf(w, "# commit: %s\n", l.commit)
	fmt.Fprintf(w, "# command: go test ./internal/mutation -run TestLedger -ledger -ledger.pkgs %s -timeout 0 -v\n", l.pkg)
	fmt.Fprintf(w, "# %d mutants in %s; unit tests: ./%s; golden: ./%s -run '%s'\n",
		len(l.results), l.elapsed, l.pkg, goldenSuite.pkg, goldenSuite.run)
	fmt.Fprintf(w, "#\n# %-11s", "operator")
	for _, c := range classNames {
		fmt.Fprintf(w, " %11s", c)
	}
	for _, op := range append(operators, "total") {
		c := counts[op]
		if op == "total" {
			c = &total
		}
		if c == nil {
			c = new([5]int)
		}
		fmt.Fprintf(w, "\n# %-11s", op)
		for _, n := range c {
			fmt.Fprintf(w, " %11d", n)
		}
	}
	fmt.Fprintf(w, "\n#\n# unexplained: %d\n", len(unexplained))
	section := func(title string, lines []string) {
		fmt.Fprintf(w, "\n== %s (%d)\n", title, len(lines))
		for _, line := range lines {
			fmt.Fprintln(w, line)
		}
	}
	section("survived", listed[survived])
	section("golden-only: killed only by a digest test", listed[goldenOnly])
	section("timed out", listed[timedOut])
	section("dropped: does not compile", listed[dropped])
	section("listed as equivalent but killed", killedEquivalents)
	var tests []string
	for name, n := range byTest {
		tests = append(tests, fmt.Sprintf("%5d %s", n, name))
	}
	sort.Slice(tests, func(i, j int) bool {
		return strings.TrimSpace(tests[i][5:]) < strings.TrimSpace(tests[j][5:])
	})
	section("kills per unit test", tests)
	section("killed", listed[killed])
	return unexplained
}

// moduleRoot is the directory holding go.mod, two levels up.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	return root
}

// commitOf names the commit the package was mutated at, noting
// uncommitted changes under the package directory.
func commitOf(root, pkg string) string {
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	commit := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain", "--", pkg).Output(); err != nil || len(dirty) > 0 {
		commit += " with uncommitted changes under " + pkg
	}
	return commit
}
