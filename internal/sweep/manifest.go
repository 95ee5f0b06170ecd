package sweep

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"sort"
	"time"
)

// Manifest summarizes one sweep run. Close writes it next to the
// results store (Store.ManifestPath) when the sweep is store-backed.
type Manifest struct {
	RunID       string    `json:"run_id"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	WallSeconds float64   `json:"wall_seconds"`
	Workers     int       `json:"workers"`

	Submitted   int `json:"submitted"` // unique jobs
	Deduped     int `json:"deduped"`   // duplicate submissions folded away
	Completed   int `json:"completed"` // executed this run
	Cached      int `json:"cached"`    // served from the store (resume)
	Quarantined int `json:"quarantined"`
	Canceled    int `json:"canceled"`
	StoreErrors int `json:"store_errors,omitempty"`

	// QuarantinedJobs lists the labels of jobs that were quarantined,
	// so a failed sweep is diagnosable from the manifest alone.
	QuarantinedJobs []string `json:"quarantined_jobs,omitempty"`

	Store string `json:"store,omitempty"`

	// Distributed-mode fields, so a run through the pmpsweepd
	// coordinator is auditable after the fact. WorkerJobs counts the
	// records each remote worker finished, by worker ID; pmpsweepd adds
	// where the coordinator ran and how many workers it saw.
	Coordinator   string         `json:"coordinator,omitempty"`
	RemoteWorkers int            `json:"remote_workers,omitempty"`
	WorkerJobs    map[string]int `json:"worker_jobs,omitempty"`
}

// manifest assembles the final manifest from the sweep's counters.
func (s *Sweep) manifest() Manifest {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Manifest{
		RunID:       fmt.Sprintf("%x", s.started.UnixNano()),
		StartedAt:   s.started,
		FinishedAt:  now,
		WallSeconds: now.Sub(s.started).Seconds(),
		Workers:     s.opts.Workers,
		Submitted:   s.submitted,
		Deduped:     s.deduped,
		Completed:   s.completed,
		Cached:      s.cached,
		Quarantined: s.quarantined,
		Canceled:    s.canceled,
		StoreErrors: s.storeErrs,
		WorkerJobs:  maps.Clone(s.workerJobs),
	}
	if s.quarantined > 0 {
		for _, t := range s.tickets {
			select {
			case <-t.done:
				if t.err == nil && t.rec.Status == StatusQuarantined {
					m.QuarantinedJobs = append(m.QuarantinedJobs, t.rec.Label)
				}
			default:
			}
		}
		sort.Strings(m.QuarantinedJobs)
	}
	return m
}

// WriteManifest writes the manifest as indented JSON. Besides Close,
// pmpsweepd uses it to add the coordinator's address and worker count
// to a distributed run's manifest.
func WriteManifest(path string, m Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
