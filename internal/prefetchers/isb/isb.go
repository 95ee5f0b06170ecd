// Package isb implements the Irregular Stream Buffer (Jain & Lin,
// MICRO'13), the temporal prefetcher the PMP paper's §VI-C describes
// as "reconstructing physical addresses into structural addresses":
// correlated miss pairs are linearized into a synthetic structural
// address space so that irregular temporal streams become sequential
// and can be prefetched with simple next-line logic there.
//
// Faithful simplification: the original stores its (physical →
// structural) maps in off-chip DRAM with an on-chip cache; here both
// maps are bounded on-chip tables sized by MapEntries, and the storage
// model accounts for the on-chip portion only — the same position the
// PMP paper takes when it notes these designs "require too much
// storage" (§VI-C).
package isb

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config tunes the ISB.
type Config struct {
	MapEntries int    // bounded size of each direction's mapping table
	Degree     int    // structural next-line prefetch degree
	StreamMax  uint64 // structural addresses allocated per stream chunk
}

// DefaultConfig returns a mid-size configuration.
func DefaultConfig() Config {
	return Config{MapEntries: 8192, Degree: 3, StreamMax: 256}
}

// Prefetcher is the ISB. Construct with New.
type Prefetcher struct {
	cfg Config
	// psMap: physical line -> structural address.
	psMap map[mem.Addr]uint64
	// spMap: structural address -> physical line.
	spMap map[uint64]mem.Addr
	// nextStructural is the allocation cursor for new streams.
	nextStructural uint64
	// per-PC training state: last line touched by the PC's stream.
	lastLine map[uint64]mem.Addr
	q        *prefetch.OutQueue
}

// New constructs an ISB.
func New(cfg Config) *Prefetcher {
	if cfg.MapEntries < 256 {
		cfg.MapEntries = 256
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	if cfg.StreamMax == 0 {
		cfg.StreamMax = 256
	}
	return &Prefetcher{
		cfg:      cfg,
		psMap:    make(map[mem.Addr]uint64, cfg.MapEntries),
		spMap:    make(map[uint64]mem.Addr, cfg.MapEntries),
		lastLine: make(map[uint64]mem.Addr, 64),
		q:        prefetch.NewOutQueue(4 * cfg.Degree),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "isb" }

// assign maps a physical line to a structural address.
func (p *Prefetcher) assign(line mem.Addr, s uint64) {
	if len(p.psMap) >= p.cfg.MapEntries {
		// Bounded tables: clear wholesale (hardware would evict; bulk
		// clearing keeps the model simple and pessimistic).
		clear(p.psMap)
		clear(p.spMap)
	}
	p.psMap[line] = s
	p.spMap[s] = line
}

// Train implements prefetch.Prefetcher: consecutive misses from the
// same PC are temporal neighbours; give them consecutive structural
// addresses, then prefetch structurally-sequential successors.
func (p *Prefetcher) Train(a prefetch.Access) {
	if a.Hit {
		return
	}
	line := a.Addr.Line()

	if last, ok := p.lastLine[a.PC]; ok && last != line {
		// Linearize: the new line follows `last` structurally.
		ls, ok := p.psMap[last]
		if !ok {
			// Start a new stream chunk.
			ls = p.nextStructural
			p.nextStructural += p.cfg.StreamMax
			p.assign(last, ls)
		}
		if _, mapped := p.psMap[line]; !mapped {
			// Only extend within the chunk; crossing chunks starts anew.
			if (ls+1)%p.cfg.StreamMax != 0 {
				p.assign(line, ls+1)
			}
		}
	}
	p.lastLine[a.PC] = line
	if len(p.lastLine) > 256 {
		clear(p.lastLine)
	}

	// Prefetch the structural successors of the current line.
	s, ok := p.psMap[line]
	if !ok {
		return
	}
	for d := 1; d <= p.cfg.Degree; d++ {
		phys, ok := p.spMap[s+uint64(d)]
		if !ok {
			return
		}
		level := prefetch.LevelL1
		if d > 1 {
			level = prefetch.LevelL2
		}
		p.q.Push(prefetch.Request{Addr: phys, Level: level})
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

// StorageBits implements prefetch.Prefetcher: two mapping tables of
// (36b line, ~24b structural) pairs — large, as §VI-C emphasizes.
func (p *Prefetcher) StorageBits() int {
	return p.cfg.MapEntries * 2 * (36 + 24)
}
