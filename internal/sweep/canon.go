package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ReadRecords loads a results store file read-only and resolves it the
// way Open does: last record per ID wins, malformed lines (a truncated
// final write) are skipped. It returns the resolved records and the
// number of lines skipped.
func ReadRecords(path string) (map[string]Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: read store: %w", err)
	}
	defer f.Close()
	byID := map[string]Record{}
	_, skipped, err := scanRecords(f, byID)
	if err != nil {
		return nil, skipped, fmt.Errorf("sweep: read store: %w", err)
	}
	return byID, skipped, nil
}

// WriteCanonical writes the canonical resolution of a results store to
// w: the last record per ID, sorted by ID, one JSON line each, with
// the run-varying fields (attempts, wall time) zeroed. Two stores
// that resolved the same job set to the same results — e.g. a serial
// run and an N-worker distributed run, even one that lost a worker
// mid-sweep — produce byte-identical canonical dumps; the
// distributed-smoke CI gate diffs exactly this.
func WriteCanonical(w io.Writer, path string) error {
	byID, _, err := ReadRecords(path)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bw := bufio.NewWriter(w)
	for _, id := range ids {
		rec := byID[id]
		rec.Attempts = 0
		rec.WallNS = 0
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("sweep: canonical marshal: %w", err)
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}
