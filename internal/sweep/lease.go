package sweep

import (
	"fmt"
	"sort"
	"time"

	"pmp/internal/runspec"
)

// The lease verbs let remote workers drain the queue in place of the
// local pool: the pmpsweepd coordinator calls them from its HTTP
// handlers. The caller passes the time in, so a lease's life follows
// the caller's clock.

// Lease hands up to n queued jobs to worker until deadline, oldest
// first, and returns their specs. Each lease uses one of the job's
// MaxAttempts attempts.
func (s *Sweep) Lease(worker string, n int, deadline time.Time) []runspec.RunSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	var specs []runspec.RunSpec
	for len(specs) < n {
		t := s.nextLocked()
		if t == nil {
			break
		}
		t.worker, t.deadline = worker, deadline
		t.attempts++
		s.leases[t.id] = t
		specs = append(specs, t.job.Spec)
	}
	return specs
}

// Renew extends every lease worker holds to deadline: the heartbeat of
// a worker still running its jobs.
func (s *Sweep) Renew(worker string, deadline time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.leases {
		if t.worker == worker {
			t.deadline = deadline
		}
	}
}

// Finish resolves job rec.ID with a worker's record and persists it.
// It reports false, and drops the record, when the sweep does not know
// the ID or the job has already resolved: a stale copy from a worker
// whose lease lapsed. A record for a job re-queued after a lapsed lease
// still resolves it, so the job is not run again.
func (s *Sweep) Finish(worker string, rec Record) bool {
	s.mu.Lock()
	t, ok := s.tickets[rec.ID]
	if !ok || !s.resolveLocked(t, rec, nil) {
		s.mu.Unlock()
		return false
	}
	delete(s.leases, rec.ID)
	s.workerJobs[worker]++
	s.mu.Unlock()
	s.persist(rec)
	return true
}

// Expire ends every lease whose deadline is not after now, in ID order:
// the job is queued again, or quarantined with a store record once its
// leases have used MaxAttempts attempts. It returns the number of
// leases that lapsed.
func (s *Sweep) Expire(now time.Time) int {
	s.mu.Lock()
	var lapsed []string
	for id, t := range s.leases {
		if !now.Before(t.deadline) {
			lapsed = append(lapsed, id)
		}
	}
	// Sorted, so simultaneous expiries re-queue and reach the store in
	// a deterministic order.
	sort.Strings(lapsed)
	var quarantined []Record
	for _, id := range lapsed {
		t := s.leases[id]
		delete(s.leases, id)
		s.expired++
		if t.attempts < s.opts.MaxAttempts {
			s.backlog = append(s.backlog, t)
			s.cond.Signal()
			continue
		}
		rec := recordOf(id, t.job.Spec, StatusQuarantined,
			fmt.Sprintf("lease expired %d times (last worker %s)", t.attempts, t.worker), t.attempts)
		s.resolveLocked(t, rec, nil)
		quarantined = append(quarantined, rec)
	}
	s.mu.Unlock()
	s.persist(quarantined...)
	return len(lapsed)
}

// Lookup returns the record of job id once it has resolved (done), and
// whether the sweep knows the ID at all (known).
func (s *Sweep) Lookup(id string) (rec Record, done, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, known := s.tickets[id]
	if !known || !t.resolved() || t.err != nil {
		return Record{}, false, known
	}
	return t.rec, true, true
}

// Held counts the leased jobs each worker holds.
func (s *Sweep) Held() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := map[string]int{}
	for _, t := range s.leases {
		held[t.worker]++
	}
	return held
}
