package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePMPT collects a small synthetic trace to a .pmpt file and
// returns its path and record count.
func writePMPT(t *testing.T, dir, name string, records int) string {
	t.Helper()
	tr := Collect(NewStream(name, 42, records, DefaultStreamParams()), 0)
	path := filepath.Join(dir, name+".pmpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeManifest marshals a manifest next to the trace files.
func writeManifest(t *testing.T, dir string, m Manifest) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "traces.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadManifest(t *testing.T) {
	dir := t.TempDir()
	p1 := writePMPT(t, dir, "ext-a", 500)
	writePMPT(t, dir, "ext-b", 300)
	sum, err := FileSHA256(p1)
	if err != nil {
		t.Fatal(err)
	}

	path := writeManifest(t, dir, Manifest{
		Version: ManifestVersion,
		Traces: []ExternalSpec{
			{Name: "ext-a", Family: "spec06", Class: HighMPKI, Path: "ext-a.pmpt", SHA256: sum, Records: 500},
			{Name: "ext-b", Path: "ext-b.pmpt"}, // defaults: family external, class medium
		},
	})

	specs, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("loaded %d specs, want 2", len(specs))
	}
	a, b := specs[0], specs[1]
	if a.Name != "ext-a" || a.Family != "spec06" || a.Class != HighMPKI || a.File != p1 {
		t.Errorf("spec a = %+v", a)
	}
	if b.Family != "external" || b.Class != MediumMPKI {
		t.Errorf("spec b defaults not applied: %+v", b)
	}

	count := func(src Source) int {
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				return n
			}
			n++
		}
	}
	// The spec's New opens the file lazily and caps at the request,
	// also after a Reset.
	src := a.New(100)
	if src.Name() != "ext-a" {
		t.Errorf("source name %q", src.Name())
	}
	if n := count(src); n != 100 {
		t.Errorf("capped source yielded %d records, want 100", n)
	}
	src.Reset()
	if n := count(src); n != 100 {
		t.Errorf("capped source yielded %d records after Reset, want 100", n)
	}

	// Asking for more than the file holds drains the file and stops.
	if n := count(a.New(10_000)); n != 500 {
		t.Errorf("oversized request yielded %d records, want 500", n)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	writePMPT(t, dir, "ext-a", 100)

	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"bad version", Manifest{Version: 99, Traces: []ExternalSpec{{Name: "x", Path: "ext-a.pmpt"}}}, "version"},
		{"empty", Manifest{Version: ManifestVersion}, "no traces"},
		{"no name", Manifest{Version: ManifestVersion, Traces: []ExternalSpec{{Path: "ext-a.pmpt"}}}, "no name"},
		{"no path", Manifest{Version: ManifestVersion, Traces: []ExternalSpec{{Name: "x"}}}, "no path"},
		{"dup name", Manifest{Version: ManifestVersion, Traces: []ExternalSpec{
			{Name: "x", Path: "ext-a.pmpt"}, {Name: "x", Path: "ext-a.pmpt"},
		}}, "duplicate"},
		{"shadows suite", Manifest{Version: ManifestVersion, Traces: []ExternalSpec{
			{Name: Suite()[0].Name, Path: "ext-a.pmpt"},
		}}, "shadows a built-in"},
	}
	for _, c := range cases {
		path := writeManifest(t, t.TempDir(), c.m)
		if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestManifestVerify(t *testing.T) {
	dir := t.TempDir()
	p := writePMPT(t, dir, "ext-a", 100)
	sum, err := FileSHA256(p)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong hash.
	bad := strings.Repeat("0", 64)
	path := writeManifest(t, dir, Manifest{Version: ManifestVersion,
		Traces: []ExternalSpec{{Name: "ext-a", Path: "ext-a.pmpt", SHA256: bad}}})
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Errorf("wrong hash: err %v", err)
	}

	// Wrong record count.
	path = writeManifest(t, dir, Manifest{Version: ManifestVersion,
		Traces: []ExternalSpec{{Name: "ext-a", Path: "ext-a.pmpt", Records: 99}}})
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "records") {
		t.Errorf("wrong records: err %v", err)
	}

	// Missing file.
	path = writeManifest(t, dir, Manifest{Version: ManifestVersion,
		Traces: []ExternalSpec{{Name: "gone", Path: "missing.pmpt"}}})
	if _, err := LoadManifest(path); err == nil {
		t.Error("missing file: no error")
	}

	// All good.
	path = writeManifest(t, dir, Manifest{Version: ManifestVersion,
		Traces: []ExternalSpec{{Name: "ext-a", Path: "ext-a.pmpt", SHA256: sum, Records: 100}}})
	if _, err := LoadManifest(path); err != nil {
		t.Errorf("valid manifest: %v", err)
	}
}
