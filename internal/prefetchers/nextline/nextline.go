// Package nextline implements the classic next-line prefetcher (Smith,
// 1978): every demand access prefetches the following cache line. It is
// the simplest useful baseline and a sanity check for the harness.
package nextline

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Prefetcher is the next-line prefetcher. Degree lines are fetched
// ahead of every access; the zero value prefetches nothing — construct
// with New.
type Prefetcher struct {
	degree int
	q      *prefetch.OutQueue
}

// New returns a next-line prefetcher fetching `degree` lines ahead
// (degree >= 1; values below 1 are clamped to 1).
func New(degree int) *Prefetcher {
	if degree < 1 {
		degree = 1
	}
	return &Prefetcher{degree: degree, q: prefetch.NewOutQueue(4 * degree)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "nextline" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	line := a.Addr.Line()
	for i := 1; i <= p.degree; i++ {
		p.q.Push(prefetch.Request{
			Addr:  line + mem.Addr(i*mem.LineBytes),
			Level: prefetch.LevelL1,
		})
	}
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.q.PopInto(dst, max)
}

// OnEvict implements prefetch.Prefetcher.
func (p *Prefetcher) OnEvict(mem.Addr) {}

// OnFill implements prefetch.Prefetcher.
func (p *Prefetcher) OnFill(mem.Addr, prefetch.Level, bool) {}

// StorageBits implements prefetch.Prefetcher: next-line needs no state
// beyond its tiny request queue.
func (p *Prefetcher) StorageBits() int { return 4 * p.degree * 64 }
