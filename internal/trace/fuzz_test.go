package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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

// FuzzRNG runs the rng and math/rand side by side on one seed and an
// op stream, and checks every draw. Each op byte picks a draw; bounds
// and new seeds come from the bytes that follow it.
func FuzzRNG(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 0xff, 0xff, 0xff, 0x7f, 6, 200, 5, 1, 2, 3, 4, 5, 6, 7, 8, 0})
	f.Add(int64(-1), []byte{4, 1, 0, 0, 0, 0, 0, 0, 0x40, 3, 3, 0, 0, 0, 6, 255, 6, 255, 2})
	f.Add(int64(1<<31-1), []byte{6, 80, 5, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0x40})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r, ref := newRNG(seed), rand.New(rand.NewSource(seed))
		// take returns the next n bytes of ops, zero-padded.
		take := func(n int) []byte {
			var b [8]byte
			k := copy(b[:n], ops)
			ops = ops[k:]
			return b[:]
		}
		for step := 0; len(ops) > 0; step++ {
			op := ops[0] % 7
			ops = ops[1:]
			switch op {
			case 0:
				if got, want := r.Int63(), ref.Int63(); got != want {
					t.Fatalf("op %d: Int63 %d, math/rand %d", step, got, want)
				}
			case 1:
				if got, want := r.Int31(), ref.Int31(); got != want {
					t.Fatalf("op %d: Int31 %d, math/rand %d", step, got, want)
				}
			case 2:
				if got, want := r.Float64(), ref.Float64(); got != want {
					t.Fatalf("op %d: Float64 %v, math/rand %v", step, got, want)
				}
			case 3:
				n := max(int(binary.LittleEndian.Uint32(take(4))&(1<<31-1)), 1)
				if got, want := r.intn(newBound(n)), ref.Intn(n); got != want {
					t.Fatalf("op %d: intn(%d) %d, math/rand %d", step, n, got, want)
				}
			case 4:
				n := max(int64(binary.LittleEndian.Uint64(take(8))&(1<<63-1)), 1)
				if got, want := r.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("op %d: Int63n(%d) %d, math/rand %d", step, n, got, want)
				}
			case 5:
				s := int64(binary.LittleEndian.Uint64(take(8)))
				r.Seed(s)
				ref.Seed(s)
			case 6:
				// Skip ahead, so short inputs still cross block refills.
				for range 4 * int(take(1)[0]) {
					if got, want := r.Int63(), ref.Int63(); got != want {
						t.Fatalf("op %d: skipped Int63 %d, math/rand %d", step, got, want)
					}
				}
			}
		}
	})
}
