package sweep

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time view of a sweep's progress. The
// pmpsweepd coordinator serves it as the body of /status.
type Snapshot struct {
	Submitted   int           `json:"submitted"` // unique jobs accepted
	Deduped     int           `json:"deduped"`   // submissions folded into an existing ticket
	Done        int           `json:"done"`      // resolved (completed + cached + quarantined + canceled)
	Cached      int           `json:"cached"`    // served from the results store
	Completed   int           `json:"completed"` // executed to completion this run
	Leased      int           `json:"leased"`    // held by remote workers
	Expired     int           `json:"expired"`   // leases that lapsed (worker death or stall)
	Quarantined int           `json:"quarantined"`
	Canceled    int           `json:"canceled"`
	StoreErrors int           `json:"store_errors"`
	Running     []string      `json:"running,omitempty"` // labels of jobs executing locally
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// ProgressFunc receives periodic snapshots; final is true for the
// last report, issued from Close.
type ProgressFunc func(snap Snapshot, final bool)

// Snapshot returns the sweep's current counters.
func (s *Sweep) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	running := make([]string, 0, len(s.running))
	for _, label := range s.running {
		running = append(running, label)
	}
	sort.Strings(running)
	return Snapshot{
		Submitted:   s.submitted,
		Deduped:     s.deduped,
		Done:        s.done,
		Cached:      s.cached,
		Completed:   s.completed,
		Leased:      len(s.leases),
		Expired:     s.expired,
		Quarantined: s.quarantined,
		Canceled:    s.canceled,
		StoreErrors: s.storeErrs,
		Running:     running,
		Elapsed:     time.Since(s.started),
	}
}

// progressLoop reports at the configured interval until Close.
func (s *Sweep) progressLoop() {
	defer s.progressWG.Done()
	tick := time.NewTicker(s.opts.ProgressEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.opts.Progress(s.Snapshot(), false)
		case <-s.progressStop:
			return
		}
	}
}

// WriterProgress returns a ProgressFunc rendering one status line per
// report to w (normally stderr): jobs done/total, throughput, ETA, the
// leases and failures when there are any, and the running job labels.
func WriterProgress(w io.Writer) ProgressFunc {
	return func(snap Snapshot, final bool) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "sweep: %d/%d done", snap.Done, snap.Submitted)
		if snap.Cached > 0 {
			fmt.Fprintf(&sb, " · %d cached", snap.Cached)
		}
		if snap.Quarantined > 0 {
			fmt.Fprintf(&sb, " · %d quarantined", snap.Quarantined)
		}
		if snap.Canceled > 0 {
			fmt.Fprintf(&sb, " · %d canceled", snap.Canceled)
		}
		if snap.Leased > 0 {
			fmt.Fprintf(&sb, " · %d leased", snap.Leased)
		}
		if snap.Expired > 0 {
			fmt.Fprintf(&sb, " · %d expired leases", snap.Expired)
		}
		if snap.StoreErrors > 0 {
			fmt.Fprintf(&sb, " · %d store errors", snap.StoreErrors)
		}
		if secs := snap.Elapsed.Seconds(); secs > 0 && snap.Completed > 0 {
			rate := float64(snap.Completed) / secs
			fmt.Fprintf(&sb, " · %.1f jobs/s", rate)
			if left := snap.Submitted - snap.Done; left > 0 && !final {
				eta := time.Duration(float64(left) / rate * float64(time.Second)).Round(time.Second)
				fmt.Fprintf(&sb, " · ETA %v", eta)
			}
		}
		if len(snap.Running) > 0 && !final {
			show := snap.Running
			const maxShow = 4
			extra := ""
			if len(show) > maxShow {
				extra = fmt.Sprintf(" +%d", len(show)-maxShow)
				show = show[:maxShow]
			}
			fmt.Fprintf(&sb, " · running: %s%s", strings.Join(show, ", "), extra)
		}
		if final {
			sb.WriteString(" · finished")
		}
		fmt.Fprintln(w, sb.String())
	}
}
