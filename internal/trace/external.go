package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// External-suite manifests: a JSON file listing converted real-workload
// traces (.pmpt files produced by `pmptrace convert` from ChampSim/DPC
// sets) so they load next to the synthetic Suite and drop into pmpsim,
// pmpexperiments and the distributed sweep unchanged. See
// docs/traces.md ("External workloads") for the schema and workflow.

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// ExternalSpec is one manifest entry: a converted trace on disk plus
// the suite metadata the experiment tables group by.
type ExternalSpec struct {
	// Name is the suite-unique trace name (e.g. "spec06.mcf-46B").
	Name string `json:"name"`
	// Family groups the trace in per-family table columns. Free-form;
	// the synthetic families (spec06, spec17, ligra, parsec) are
	// conventional. Defaults to "external".
	Family Family `json:"family,omitempty"`
	// Class is the MPKI class used for heterogeneous mix construction.
	// Defaults to medium.
	Class MPKIClass `json:"class,omitempty"`
	// Path locates the .pmpt file, relative to the manifest's directory
	// unless absolute.
	Path string `json:"path"`
	// SHA256 is the hex digest of the .pmpt file; when set, Verify
	// checks it. `pmptrace convert` prints it with a ready-to-paste
	// manifest snippet.
	SHA256 string `json:"sha256,omitempty"`
	// Records documents the converted record count (informational).
	Records int `json:"records,omitempty"`
}

// Manifest is the external-suite manifest file.
type Manifest struct {
	Version int            `json:"version"`
	Traces  []ExternalSpec `json:"traces"`
}

// ReadManifest parses a manifest file, validates it, and resolves every
// entry's Path relative to the manifest's directory.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("trace: manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("trace: manifest %s: version %d, want %d", path, m.Version, ManifestVersion)
	}
	if len(m.Traces) == 0 {
		return nil, fmt.Errorf("trace: manifest %s: no traces", path)
	}
	dir := filepath.Dir(path)
	seen := map[string]bool{}
	for i := range m.Traces {
		e := &m.Traces[i]
		if e.Name == "" {
			return nil, fmt.Errorf("trace: manifest %s: entry %d has no name", path, i)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("trace: manifest %s: duplicate trace name %q", path, e.Name)
		}
		seen[e.Name] = true
		// Labels, store records and tables refer to a trace by its
		// name, so it must not also name a built-in trace.
		if _, ok := ByName(e.Name); ok {
			return nil, fmt.Errorf("trace: manifest %s: trace %q shadows a built-in trace", path, e.Name)
		}
		if e.Path == "" {
			return nil, fmt.Errorf("trace: manifest %s: trace %q has no path", path, e.Name)
		}
		if !filepath.IsAbs(e.Path) {
			e.Path = filepath.Join(dir, e.Path)
		}
		if e.Family == "" {
			e.Family = "external"
		}
		if e.Class == "" {
			e.Class = MediumMPKI
		}
	}
	return &m, nil
}

// Specs converts the manifest entries into suite specs (see FileSpec).
func (m *Manifest) Specs() []Spec {
	specs := make([]Spec, len(m.Traces))
	for i, e := range m.Traces {
		specs[i] = FileSpec(e)
	}
	return specs
}

// Verify checks that every entry's file exists, is a readable .pmpt,
// and matches its SHA256 when one is recorded.
func (m *Manifest) Verify() error {
	for _, e := range m.Traces {
		info, err := Stat(e.Path)
		if err != nil {
			return fmt.Errorf("trace: manifest trace %q: %w", e.Name, err)
		}
		if e.Records > 0 && info.Records != e.Records {
			return fmt.Errorf("trace: manifest trace %q: file has %d records, manifest says %d",
				e.Name, info.Records, e.Records)
		}
		if e.SHA256 == "" {
			continue
		}
		sum, err := FileSHA256(e.Path)
		if err != nil {
			return fmt.Errorf("trace: manifest trace %q: %w", e.Name, err)
		}
		if sum != e.SHA256 {
			return fmt.Errorf("trace: manifest trace %q: sha256 %s, manifest says %s", e.Name, sum, e.SHA256)
		}
	}
	return nil
}

// LoadManifest reads, verifies and converts a manifest in one step —
// the path CLI surfaces take.
func LoadManifest(path string) ([]Spec, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m.Specs(), nil
}

// FileSpec builds the suite spec for one external trace. Its New opens
// a fresh lazy FileSource per call (sources are single-use streams; see
// trace.Source) and caps it at the requested record count, so a
// converted 200M-load trace participates in a QuickScale run without
// loading whole. New panics when the file cannot be opened — inside a
// sweep that quarantines the job, exactly like a crashed simulation,
// instead of wedging the whole run.
func FileSpec(e ExternalSpec) Spec {
	name, path := e.Name, e.Path
	return Spec{
		Name:   name,
		Family: e.Family,
		Class:  e.Class,
		File:   path,
		New: func(n int) Source {
			fs, err := OpenFile(path)
			if err != nil {
				panic(fmt.Sprintf("trace: external trace %q: %v", name, err))
			}
			return Limit(fs, n)
		},
	}
}

// FileSHA256 returns the lowercase hex SHA-256 of a file's contents.
func FileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Limit caps a source at max records (max <= 0: unlimited). Reset
// rewinds both the cap and the underlying source.
func Limit(s Source, max int) Source {
	if max <= 0 {
		return s
	}
	return &limitSource{src: s, max: max}
}

type limitSource struct {
	src Source
	max int
	n   int
}

func (l *limitSource) Name() string { return l.src.Name() }

func (l *limitSource) Next() (Record, bool) {
	if l.n >= l.max {
		return Record{}, false
	}
	r, ok := l.src.Next()
	if ok {
		l.n++
	}
	return r, ok
}

func (l *limitSource) Reset() {
	l.src.Reset()
	l.n = 0
}
