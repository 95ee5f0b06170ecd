package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmp/internal/sim"
)

func TestStoreToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(Record{ID: fmt.Sprintf("job-%d", i), Status: StatusOK,
			Result: sim.Result{Instructions: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Simulate a crash mid-write: append half a JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"truncat`)
	f.Close()

	st2, err := OpenStore(path, true)
	if err != nil {
		t.Fatalf("resume over truncated store: %v", err)
	}
	defer st2.Close()
	if st2.Loaded() != 3 {
		t.Errorf("loaded %d records, want 3 (truncated line skipped)", st2.Loaded())
	}
	if st2.Skipped() != 1 {
		t.Errorf("skipped %d lines, want 1", st2.Skipped())
	}
}

func TestStoreFreshOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, _ := OpenStore(path, false)
	st.Append(Record{ID: "a", Status: StatusOK})
	st.Close()

	st2, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 0 {
		t.Errorf("fresh open should truncate, found %d records", st2.Len())
	}
	if _, ok := st2.Lookup("a"); ok {
		t.Error("record from the truncated file is still served")
	}
}

func TestStoreLastRecordPerIDWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, _ := OpenStore(path, false)
	st.Append(Record{ID: "a", Status: StatusQuarantined, Err: "boom"})
	st.Append(Record{ID: "a", Status: StatusOK, Result: sim.Result{Cycles: 7}})
	st.Close()

	st2, _ := OpenStore(path, true)
	defer st2.Close()
	rec, ok := st2.Lookup("a")
	if !ok || rec.Status != StatusOK || rec.Result.Cycles != 7 {
		t.Errorf("lookup should return the last appended record, got %+v (ok=%v)", rec, ok)
	}
	if st2.Len() != 1 {
		t.Errorf("index holds %d ids, want 1", st2.Len())
	}
}

func TestStoreCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "dir", "results.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(path); err != nil {
		t.Errorf("store file not created: %v", err)
	}
}

func TestManifestPathSuffixHandling(t *testing.T) {
	for in, want := range map[string]string{
		"runs/sweep.jsonl": "runs/sweep.manifest.json",
		"runs/sweep":       "runs/sweep.manifest.json",
	} {
		st := &Store{path: in}
		if got := st.ManifestPath(); got != want {
			t.Errorf("ManifestPath(%q) = %q, want %q", in, got, want)
		}
	}
	if !strings.HasSuffix((&Store{path: "x.jsonl"}).ManifestPath(), ".manifest.json") {
		t.Error("manifest path should end in .manifest.json")
	}
}

// The store scanner never panics on arbitrary bytes: every non-blank
// line is either a valid record or skipped, and every record it keeps
// is indexed under its own non-empty ID.
func FuzzScanRecords(f *testing.F) {
	f.Add([]byte(`{"id":"a","label":"pmp/t","status":"ok","attempts":1,"wall_ns":5,"result":{}}` + "\n"))
	f.Add([]byte("{\"id\":\"a\",\"status\":\"ok\"}\n\n  \n{\"id\":\"a\",\"status\":\"quarantined\"}\r\n{\"id\":\"b\""))
	f.Add([]byte(`{"id":""}` + "\nnull\n[1,2]\n" + `{"id":"x","results":[{},{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		byID := map[string]Record{}
		valid, skipped, err := scanRecords(strings.NewReader(string(data)), byID)
		if err != nil {
			t.Fatalf("scan error on %d bytes: %v", len(data), err)
		}
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				lines++
			}
		}
		if valid+skipped != lines {
			t.Errorf("valid %d + skipped %d != %d non-blank lines", valid, skipped, lines)
		}
		if len(byID) > valid {
			t.Errorf("%d records indexed from %d valid lines", len(byID), valid)
		}
		for id, rec := range byID {
			if id == "" || rec.ID != id {
				t.Errorf("record %q indexed under %q", rec.ID, id)
			}
		}
	})
}
