package champsim

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// codec returns path's compression extension in lower case: ".gz"
// (decoded by compress/gzip) or ".xz" (decoded by the host `xz`
// binary, so go.mod stays dependency-free), or "" for a raw
// instruction stream.
func codec(path string) string {
	ext := strings.ToLower(filepath.Ext(path))
	if ext == ".gz" || ext == ".xz" {
		return ext
	}
	return ""
}

// TrimCodec strips a ".gz" or ".xz" extension, in any case, from path.
func TrimCodec(path string) string { return path[:len(path)-len(codec(path))] }

// IsTracePath reports whether the path looks like a ChampSim/DPC trace
// by naming convention: a ".champsim" or ".trace" component, optionally
// followed by a compression extension (the DPC-3 sets ship as
// <bench>.champsim.trace.xz).
func IsTracePath(path string) bool {
	base := strings.ToLower(TrimCodec(filepath.Base(path)))
	return strings.HasSuffix(base, ".champsim") || strings.HasSuffix(base, ".trace")
}

// Open opens a (possibly compressed) ChampSim trace file and returns
// the decompressed stream. Close releases both the codec and the file.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var rc io.ReadCloser
	switch codec(path) {
	case ".gz":
		rc, err = gzip.NewReader(f)
	case ".xz":
		rc, err = openXz(f)
	default:
		return f, nil
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("champsim: %s: %w", path, err)
	}
	return &chainCloser{ReadCloser: rc, under: f}, nil
}

// chainCloser closes the codec first, then the underlying file.
type chainCloser struct {
	io.ReadCloser
	under io.Closer
}

func (c *chainCloser) Close() error {
	err := c.ReadCloser.Close()
	if uerr := c.under.Close(); err == nil {
		err = uerr
	}
	return err
}

// openXz shells out to `xz -dc` with the compressed stream on stdin.
// The subprocess dies with Close (kill + wait), so abandoned
// conversions do not leak decompressors.
func openXz(r io.Reader) (io.ReadCloser, error) {
	if _, err := exec.LookPath("xz"); err != nil {
		return nil, fmt.Errorf("xz binary not in PATH (install xz-utils): %w", err)
	}
	cmd := exec.Command("xz", "-q", "-dc")
	cmd.Stdin = r
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &procReader{r: out, cmd: cmd}, nil
}

// procReader adapts a subprocess stdout into a ReadCloser whose Close
// reaps the process. A non-zero exit surfaces as a read/close error so
// corrupt archives fail loudly instead of truncating silently.
type procReader struct {
	r   io.ReadCloser
	cmd *exec.Cmd
}

func (p *procReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if err == io.EOF {
		// Stream drained: the exit status decides clean EOF vs corrupt
		// input. Wait is idempotent-guarded by nilling cmd.
		if p.cmd != nil {
			werr := p.cmd.Wait()
			p.cmd = nil
			if werr != nil {
				return n, fmt.Errorf("champsim: xz: %w", werr)
			}
		}
	}
	return n, err
}

func (p *procReader) Close() error {
	if p.cmd == nil {
		// Already reaped at EOF; Wait closed the pipe for us.
		p.r.Close()
		return nil
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
	p.r.Close()
	return nil
}
