package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmp/internal/mem"
)

// writeTestTrace generates a synthetic trace, writes it as a .pmpt
// file, and returns the path plus the in-memory reference.
func writeTestTrace(t *testing.T, name string, records int) (string, *Trace) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(records + 1)))
	recs := make([]Record, records)
	for i := range recs {
		recs[i] = Record{
			PC:   rng.Uint64(),
			Addr: mem.Addr(rng.Uint64()) &^ (mem.LineBytes - 1),
			Gap:  uint16(rng.Intn(500)),
			Dep:  DepKind(rng.Intn(3)),
		}
	}
	tr := &Trace{name: name, recs: recs}
	path := filepath.Join(t.TempDir(), "t.pmpt")
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
	return path, tr
}

// drainAndCompare streams src and compares every record against ref.
func drainAndCompare(t *testing.T, src Source, ref *Trace) {
	t.Helper()
	for i, want := range ref.Records() {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("source ended at record %d of %d", i, ref.Len())
		}
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if r, ok := src.Next(); ok {
		t.Fatalf("source yielded extra record %+v past %d", r, ref.Len())
	}
}

// The trace spans three windows, so draining it refills the window
// twice and Reset moves it back to the start.
func TestFileSourceRoundTrip(t *testing.T) {
	path, ref := writeTestTrace(t, "spec06.unit-0", windowRecords*2+137)
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Name() != ref.Name() {
		t.Fatalf("Name = %q, want %q", src.Name(), ref.Name())
	}
	if src.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", src.Len(), ref.Len())
	}
	drainAndCompare(t, src, ref)
	// Reset must replay the identical stream.
	src.Reset()
	drainAndCompare(t, src, ref)
}

// Window refills must serve the identical stream at every boundary: a
// Reset taken mid-window slides the window back to the start, and a
// trace whose length is a whole number of windows ends on a full one.
func TestFileSourceWindowedFallback(t *testing.T) {
	path, ref := writeTestTrace(t, "fallback", windowRecords*2+137)
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < windowRecords+5; i++ {
		if got, ok := src.Next(); !ok || got != ref.Records()[i] {
			t.Fatalf("record %d: got %+v (ok=%v), want %+v", i, got, ok, ref.Records()[i])
		}
	}
	src.Reset()
	drainAndCompare(t, src, ref)

	path, ref = writeTestTrace(t, "whole", windowRecords*2)
	whole, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	drainAndCompare(t, whole, ref)
	whole.Reset()
	drainAndCompare(t, whole, ref)
}

func TestFileSourceEmptyTrace(t *testing.T) {
	path, _ := writeTestTrace(t, "empty", 0)
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, ok := src.Next(); ok {
		t.Error("empty trace yielded a record")
	}
}

func TestStat(t *testing.T) {
	path, ref := writeTestTrace(t, "statcheck", 512)
	inf, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Name != "statcheck" || inf.Records != 512 || inf.Version != formatVersion {
		t.Fatalf("Stat = %+v", inf)
	}
	want := int64(headerSize + len(ref.Name()) + 512*recordSize)
	if inf.SizeBytes != want {
		t.Fatalf("SizeBytes = %d, want %d", inf.SizeBytes, want)
	}
	st, _ := os.Stat(path)
	if inf.SizeBytes != st.Size() {
		t.Fatalf("SizeBytes = %d, file is %d", inf.SizeBytes, st.Size())
	}
}

func TestOpenFileRejectsTruncated(t *testing.T) {
	path, _ := writeTestTrace(t, "trunc", 100)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.pmpt")
	if err := os.WriteFile(short, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(short); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("OpenFile(truncated) = %v, want ErrBadFormat", err)
	}
	if _, err := Stat(short); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Stat(truncated) = %v, want ErrBadFormat", err)
	}
}

func TestOpenFileRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pmpt")
	if err := os.WriteFile(path, []byte("not a trace file at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("OpenFile(bad magic) = %v, want ErrBadFormat", err)
	}
}

// The lazy source must agree with the buffered Read decoder — the two
// share only the header parser, so agreement certifies both record
// paths.
func TestFileSourceMatchesBufferedRead(t *testing.T) {
	path, _ := writeTestTrace(t, "crosscheck", 2048)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	drainAndCompare(t, src, ref)
}

// Steady-state Next must not allocate, window refills included: the
// simulator calls it once per trace record.
func TestFileSourceNextDoesNotAllocate(t *testing.T) {
	path, _ := writeTestTrace(t, "allocs", 4096)
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	avg := testing.AllocsPerRun(100, func() {
		src.Reset()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	})
	if avg != 0 {
		t.Errorf("replay allocates %.3f allocs/run, want 0", avg)
	}
}
