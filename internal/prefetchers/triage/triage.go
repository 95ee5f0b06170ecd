// Package triage implements Triage (Wu et al., MICRO'19), the last of
// the §VI-C temporal designs: temporal correlation pairs (A → B,
// meaning "a miss of A was last followed by a miss of B") stored as
// key-value pairs in a dedicated on-chip metadata table — the original
// repurposes up to half of the LLC for it, which is exactly the
// storage appetite the PMP paper's related-work section criticizes.
package triage

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config tunes Triage.
type Config struct {
	TableEntries int // correlation-table entries (power of two)
	Ways         int // associativity of the metadata table
	Degree       int // chain-follow depth per trigger
}

// DefaultConfig sizes the table at 64K entries (~512KB of metadata —
// a quarter of the 2MB LLC, in the original's spirit).
func DefaultConfig() Config {
	return Config{TableEntries: 1 << 16, Ways: 8, Degree: 2}
}

type entry struct {
	valid bool
	key   mem.Addr
	next  mem.Addr
	lru   uint64
}

// Prefetcher is Triage. Construct with New.
type Prefetcher struct {
	cfg   Config
	sets  []entry
	nSets int
	stamp uint64

	lastLine map[uint64]mem.Addr // per-PC previous miss
	q        *prefetch.OutQueue
}

// New constructs Triage; sizes are clamped to powers of two.
func New(cfg Config) *Prefetcher {
	if cfg.TableEntries < 64 {
		cfg.TableEntries = 64
	}
	for cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		cfg.TableEntries++
	}
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	return &Prefetcher{
		cfg:      cfg,
		sets:     make([]entry, cfg.TableEntries),
		nSets:    cfg.TableEntries / cfg.Ways,
		lastLine: make(map[uint64]mem.Addr, 64),
		q:        prefetch.NewOutQueue(4 * cfg.Degree),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "triage" }

func (p *Prefetcher) set(key mem.Addr) []entry {
	i := int(mem.Mix64(uint64(key))&uint64(p.nSets-1)) * p.cfg.Ways
	return p.sets[i : i+p.cfg.Ways]
}

// record stores/updates the correlation key -> next.
func (p *Prefetcher) record(key, next mem.Addr) {
	p.stamp++
	set := p.set(key)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.key == key {
			e.next = next
			e.lru = p.stamp
			return
		}
		if !e.valid {
			victim, oldest = i, 0
			continue
		}
		if e.lru < oldest {
			victim, oldest = i, e.lru
		}
	}
	set[victim] = entry{valid: true, key: key, next: next, lru: p.stamp}
}

func (p *Prefetcher) successor(key mem.Addr) (mem.Addr, bool) {
	set := p.set(key)
	for i := range set {
		e := &set[i]
		if e.valid && e.key == key {
			p.stamp++
			e.lru = p.stamp
			return e.next, true
		}
	}
	return 0, false
}

// Train implements prefetch.Prefetcher: on a miss, learn the temporal
// pair (previous miss of this PC → this miss) and follow the stored
// chain forward from the current miss.
func (p *Prefetcher) Train(a prefetch.Access) {
	if a.Hit {
		return
	}
	line := a.Addr.Line()

	if last, ok := p.lastLine[a.PC]; ok && last != line {
		p.record(last, line)
	}
	p.lastLine[a.PC] = line
	if len(p.lastLine) > 256 {
		clear(p.lastLine)
	}

	cur := line
	for d := 1; d <= p.cfg.Degree; d++ {
		next, ok := p.successor(cur)
		if !ok {
			return
		}
		level := prefetch.LevelL1
		if d > 1 {
			level = prefetch.LevelL2
		}
		p.q.Push(prefetch.Request{Addr: next, Level: level})
		cur = next
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

// StorageBits implements prefetch.Prefetcher: each entry holds two
// compressed line addresses plus LRU — hundreds of KB, the §VI-C
// complaint embodied.
func (p *Prefetcher) StorageBits() int {
	return p.cfg.TableEntries * (30 + 30 + mem.CeilLog2(p.cfg.Ways))
}
