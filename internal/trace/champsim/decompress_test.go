package champsim

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestTrimCodec(t *testing.T) {
	cases := []struct{ path, want string }{
		{"bench.champsim.trace", "bench.champsim.trace"},
		{"bench.champsim.trace.gz", "bench.champsim.trace"},
		{"bench.champsim.trace.GZ", "bench.champsim.trace"},
		{"bench.champsim.trace.xz", "bench.champsim.trace"},
		{"bench.pmpt", "bench.pmpt"},
		{"a.trace.zst", "a.trace.zst"},
	}
	for _, c := range cases {
		if got := TrimCodec(c.path); got != c.want {
			t.Errorf("TrimCodec(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestIsTracePath(t *testing.T) {
	yes := []string{
		"astar_313B.champsim.trace.xz",
		"mcf.trace",
		"dir/sub/bfs.champsim.trace.gz",
		"602.gcc_s-734B.champsim",
	}
	no := []string{"golden.pmpt", "readme.md", "trace", "a.trace.zst.bak"}
	for _, p := range yes {
		if !IsTracePath(p) {
			t.Errorf("IsTracePath(%q) = false, want true", p)
		}
	}
	for _, p := range no {
		if IsTracePath(p) {
			t.Errorf("IsTracePath(%q) = true, want false", p)
		}
	}
}

// TestOpenCorruptGzip: a damaged gzip stream must surface an error
// (either at Open or during the read), never a panic or silent
// truncation to garbage records.
func TestOpenCorruptGzip(t *testing.T) {
	good, err := os.ReadFile(fixtureGz)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	for i := len(bad) / 2; i < len(bad)/2+16 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}
	path := filepath.Join(t.TempDir(), "corrupt.champsim.trace.gz")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := Open(path)
	if err != nil {
		return // corrupt header rejected at open: fine
	}
	defer rc.Close()
	if _, err := io.Copy(io.Discard, rc); err == nil {
		t.Error("reading a corrupt gzip stream returned no error")
	}
}

// TestOpenTruncatedGzipMember: a stream cut mid-member must error from
// the gzip layer, and Convert must propagate rather than succeed.
func TestOpenTruncatedGzipMember(t *testing.T) {
	good, err := os.ReadFile(fixtureGz)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.champsim.trace.gz")
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvertFile(path, ConvertOptions{}); err == nil {
		t.Error("converting a truncated gzip stream returned no error")
	}
}

// TestOpenXz exercises the exec'd xz path when the binary is present;
// skipped otherwise (openXz reports a clear error then).
func TestOpenXz(t *testing.T) {
	if _, err := exec.LookPath("xz"); err != nil {
		t.Skip("xz binary not in PATH")
	}
	raw, err := os.ReadFile(fixtureRaw)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	xzPath := filepath.Join(dir, "golden.champsim.trace.xz")
	cmd := exec.Command("xz", "-z", "-c")
	cmd.Stdin = bytes.NewReader(raw)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("xz -z: %v", err)
	}
	if err := os.WriteFile(xzPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	tr, st, err := ConvertFile(xzPath, ConvertOptions{Name: "xz-golden"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads != 100 || tr.Len() != 100 {
		t.Fatalf("xz round trip decoded %d records, want 100", tr.Len())
	}

	// Corrupt xz archives must fail loudly through the subprocess exit.
	bad := append([]byte(nil), out...)
	for i := len(bad) / 2; i < len(bad)/2+8 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}
	badPath := filepath.Join(dir, "corrupt.champsim.trace.xz")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvertFile(badPath, ConvertOptions{}); err == nil {
		t.Error("converting a corrupt xz archive returned no error")
	}

	// Close-before-EOF must reap the subprocess without error.
	rc, err := Open(xzPath)
	if err != nil {
		t.Fatal(err)
	}
	var one [InstrBytes]byte
	if _, err := io.ReadFull(rc, one[:]); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("early Close: %v", err)
	}
}
