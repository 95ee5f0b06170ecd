package champsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pmp/internal/trace"
)

const (
	fixtureRaw = "testdata/golden.champsim.trace"
	fixtureGz  = "testdata/golden.champsim.trace.gz"
)

// TestGoldenFixtureInSync pins the committed binary fixture to
// GoldenFixture(): the testdata bytes must be exactly what the source
// describes, so the fixture is reviewable and regenerable (see
// gen_fixture.go).
func TestGoldenFixtureInSync(t *testing.T) {
	want := EncodeFixture(GoldenFixture())
	got, err := os.ReadFile(fixtureRaw)
	if err != nil {
		t.Fatalf("committed fixture missing (run go run ./internal/trace/champsim/gen_fixture.go): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed fixture (%d bytes) out of sync with GoldenFixture() (%d bytes); regenerate it",
			len(got), len(want))
	}
}

// TestRoundTrip is the end-to-end fidelity check the issue asks for:
// committed ChampSim fixture -> Convert -> .pmpt on disk -> decode via
// BOTH the lazy FileSource and the buffered Read path, and all three
// record sequences must be identical.
func TestRoundTrip(t *testing.T) {
	tr, st, err := ConvertFile(fixtureRaw, ConvertOptions{Name: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads != 100 || tr.Len() != 100 {
		t.Fatalf("fixture converted to %d records (stats %d), want 100", tr.Len(), st.Loads)
	}

	pmpt := filepath.Join(t.TempDir(), "golden.pmpt")
	f, err := os.Create(pmpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Buffered path.
	data, err := os.ReadFile(pmpt)
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Len() != tr.Len() {
		t.Fatalf("buffered decode has %d records, want %d", buffered.Len(), tr.Len())
	}
	for i, r := range buffered.Records() {
		if want := tr.Records()[i]; r != want {
			t.Errorf("buffered record %d: got %+v, want %+v", i, r, want)
		}
	}

	// Lazy FileSource path.
	fs, err := trace.OpenFile(pmpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range tr.Records() {
		got, ok := fs.Next()
		if !ok {
			t.Fatalf("FileSource ended at record %d of %d", i, tr.Len())
		}
		if got != want {
			t.Errorf("FileSource record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := fs.Next(); ok {
		t.Error("FileSource yielded records past the converted length")
	}
}

// TestRoundTripCompressed runs the same conversion through the gzip
// decompressor: the .gz fixture must decode to the identical records.
// Without a name, the converted trace is named after the input path.
func TestRoundTripCompressed(t *testing.T) {
	raw, _, err := ConvertFile(fixtureRaw, ConvertOptions{Name: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	gz, _, err := ConvertFile(fixtureGz, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gz.Name() != fixtureGz {
		t.Errorf("default trace name %q, want the input path %q", gz.Name(), fixtureGz)
	}
	if gz.Len() != raw.Len() {
		t.Fatalf("gz decode has %d records, raw has %d", gz.Len(), raw.Len())
	}
	for i, r := range gz.Records() {
		if want := raw.Records()[i]; r != want {
			t.Errorf("record %d: gz %+v, raw %+v", i, r, want)
		}
	}
}
