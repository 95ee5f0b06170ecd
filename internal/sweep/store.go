package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pmp/internal/sim"
)

// Record statuses.
const (
	// StatusOK marks a job that ran to completion; resume serves it
	// from the store instead of re-running it.
	StatusOK = "ok"
	// StatusQuarantined marks a job that panicked or timed out on
	// every attempt. Resume re-runs quarantined jobs (the failure may
	// have been environmental); if the retry succeeds the appended OK
	// record wins, since the last record per ID takes precedence.
	StatusQuarantined = "quarantined"
)

// Record is one line of the results store: the outcome of one job.
type Record struct {
	ID         string     `json:"id"`
	Label      string     `json:"label"`
	Prefetcher string     `json:"prefetcher,omitempty"`
	Trace      string     `json:"trace,omitempty"`
	Status     string     `json:"status"`
	Err        string     `json:"error,omitempty"`
	Attempts   int        `json:"attempts"`
	WallNS     int64      `json:"wall_ns"`
	Result     sim.Result `json:"result"`
	// Results holds a multicore job's per-core results and stays nil
	// for a one-core job, whose result is in Result. Runs reads both.
	Results []sim.Result `json:"results,omitempty"`
}

// setResults stores a job's per-core results in the record layout: a
// single result in Result, several in Results.
func (r *Record) setResults(res []sim.Result) {
	if len(res) == 1 {
		r.Result = res[0]
		return
	}
	r.Results = res
}

// Runs returns the record's per-core results: Results when set, else
// the one Result (the zero result for a quarantined record, so a
// caller's table keeps going).
func (r Record) Runs() []sim.Result {
	if len(r.Results) > 0 {
		return r.Results
	}
	return []sim.Result{r.Result}
}

// Store is the persistent append-only JSONL results store. Every
// completed job appends exactly one line; nothing is ever rewritten,
// so a crash can at worst truncate the final line (which Open
// tolerates). The in-memory index keeps the last record per ID.
type Store struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	byID    map[string]Record
	loaded  int // valid records read at Open (resume)
	skipped int // malformed lines ignored at Open
}

// OpenStore opens (creating directories as needed) the JSONL store at
// path. With resume true, existing records are loaded and will be
// served to matching job IDs; with resume false any existing file is
// truncated and the run starts fresh.
func OpenStore(path string, resume bool) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: store dir: %w", err)
		}
	}
	st := &Store{path: path, byID: map[string]Record{}}
	if resume {
		if err := st.load(); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_APPEND | os.O_WRONLY
	if !resume {
		flags = os.O_CREATE | os.O_TRUNC | os.O_WRONLY
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	st.f = f
	st.w = bufio.NewWriter(f)
	return st, nil
}

// load reads existing records, skipping malformed lines (an
// interrupted write can leave a truncated final line; a resumable
// store must not be poisoned by it).
func (st *Store) load() error {
	f, err := os.Open(st.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sweep: load store: %w", err)
	}
	defer f.Close()
	st.loaded, st.skipped, err = scanRecords(f, st.byID)
	if err != nil {
		return fmt.Errorf("sweep: load store: %w", err)
	}
	return nil
}

// scanRecords reads JSONL store lines from r into byID, the last
// record per ID winning. Blank lines are ignored; malformed and
// ID-less lines are skipped. It returns the number of valid lines
// read (not distinct IDs) and of lines skipped.
func scanRecords(r io.Reader, byID map[string]Record) (valid, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.ID == "" {
			skipped++
			continue
		}
		byID[rec.ID] = rec
		valid++
	}
	return valid, skipped, sc.Err()
}

// Lookup returns the last record stored for the ID.
func (st *Store) Lookup(id string) (Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.byID[id]
	return rec, ok
}

// Append writes one record and flushes it to the OS, so a killed
// process loses at most the line being written.
func (st *Store) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: marshal record: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: append record: %w", err)
	}
	if err := st.w.Flush(); err != nil {
		return fmt.Errorf("sweep: flush store: %w", err)
	}
	st.byID[rec.ID] = rec
	return nil
}

// Path returns the store's file path.
func (st *Store) Path() string { return st.path }

// Len returns the number of distinct job IDs indexed.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// Loaded returns the number of valid records read at Open.
func (st *Store) Loaded() int { return st.loaded }

// Skipped returns the number of malformed lines ignored at Open.
func (st *Store) Skipped() int { return st.skipped }

// ManifestPath returns the sibling path the run manifest is written
// to: the store path with its .jsonl suffix (if any) replaced by
// .manifest.json.
func (st *Store) ManifestPath() string {
	return strings.TrimSuffix(st.path, ".jsonl") + ".manifest.json"
}

// Close flushes and closes the underlying file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	ferr := st.w.Flush()
	cerr := st.f.Close()
	st.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
