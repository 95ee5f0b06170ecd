package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead checks that the reference decoder never panics, that what
// it accepts round-trips through Write, and that FileSource agrees with
// it on every input: OpenFile fails exactly when Read fails, and
// otherwise serves Read's name, length and records, twice across a
// Reset.
func FuzzRead(f *testing.F) {
	// Seed with a valid file and near-miss corruptions.
	var buf bytes.Buffer
	tr := NewTrace("seed", []Record{
		{PC: 0x400, Addr: 0x1000, Gap: 3, Dep: DepChain},
		{PC: 0x404, Addr: 0x2000},
	})
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PMPT"))
	f.Add(append(append([]byte{}, valid[:20]...), 0xff))
	truncated := append([]byte{}, valid[:len(valid)-3]...)
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.pmpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(data))
		src, ferr := OpenFile(path)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("Read error %v, OpenFile error %v", err, ferr)
		}
		if err != nil {
			return // malformed input must error, not panic
		}
		defer src.Close()
		if src.Name() != got.Name() || src.Len() != got.Len() {
			t.Fatalf("FileSource %q/%d, Read %q/%d", src.Name(), src.Len(), got.Name(), got.Len())
		}
		drainAndCompare(t, src, got)
		src.Reset()
		drainAndCompare(t, src, got)

		// Whatever parsed must re-serialize and re-parse identically.
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.Name() != got.Name() || back.Len() != got.Len() {
			t.Fatalf("round trip changed shape: %q/%d vs %q/%d",
				got.Name(), got.Len(), back.Name(), back.Len())
		}
		for i := range got.Records() {
			if got.Records()[i] != back.Records()[i] {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
	})
}

// FuzzReadManifest checks that the manifest loader never panics and
// that every manifest it accepts holds what the rest of the repository
// relies on: at least one trace, unique non-empty names that shadow no
// built-in trace, a path, and a defaulted family and class.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"traces":[{"name":"ext-a","path":"a.pmpt"},` +
		`{"name":"ext-b","family":"spec06","class":"high","path":"/abs/b.pmpt","sha256":"00","records":3}]}`))
	f.Add([]byte(`{"version":1,"traces":[]}`))
	f.Add([]byte(`{"version":2,"traces":[{"name":"x","path":"x.pmpt"}]}`))
	f.Add([]byte(`{"version":1,"traces":[{"name":"x","path":"x.pmpt"},{"name":"x","path":"y.pmpt"}]}`))
	f.Add([]byte(`{"version":1,"traces":[{"name":"spec06.stream-0","path":"x.pmpt"}]}`))
	f.Add([]byte(`{"version":1,"traces":[{"name":"x"}]}`))
	f.Add([]byte(`{"version":1,"traces":[{"path":"x.pmpt"}]}`))
	f.Add([]byte(`{"version":1,"traces":null}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "traces.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			return
		}
		if len(m.Traces) == 0 {
			t.Fatal("accepted a manifest with no traces")
		}
		seen := map[string]bool{}
		for i, e := range m.Traces {
			if e.Name == "" || seen[e.Name] {
				t.Fatalf("entry %d: empty or duplicate name %q", i, e.Name)
			}
			seen[e.Name] = true
			if _, ok := ByName(e.Name); ok {
				t.Fatalf("entry %d: %q shadows a built-in trace", i, e.Name)
			}
			if e.Path == "" || e.Family == "" || e.Class == "" {
				t.Fatalf("entry %d: path %q, family %q, class %q", i, e.Path, e.Family, e.Class)
			}
		}
	})
}
