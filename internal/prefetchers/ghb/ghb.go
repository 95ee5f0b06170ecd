// Package ghb implements Global History Buffer prefetching (Nesbit &
// Smith, HPCA'04/IEEE Micro'05), the classic temporal scheme the PMP
// paper's related work opens §VI-C with: a circular buffer of recent
// miss addresses threaded by linked lists per index key; on an access,
// the chain of previous occurrences supplies the addresses that
// followed last time (G/AC organization: global buffer, address
// correlating).
package ghb

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config tunes the GHB.
type Config struct {
	BufferSize int // circular history buffer entries
	IndexSize  int // index table entries (power of two)
	Width      int // prefetches taken per chain visit
	Depth      int // chain occurrences followed
}

// DefaultConfig returns a mid-size G/AC configuration.
func DefaultConfig() Config {
	return Config{BufferSize: 1024, IndexSize: 512, Width: 2, Depth: 2}
}

type entry struct {
	line mem.Addr
	prev int // buffer index of the previous occurrence of the key, -1 none
	seq  uint64
}

// Prefetcher is the GHB prefetcher. Construct with New.
type Prefetcher struct {
	cfg   Config
	buf   []entry
	head  int
	seq   uint64
	index []int // key -> most recent buffer position (-1 empty)
	q     *prefetch.OutQueue
}

// New constructs a GHB; sizes are clamped to powers of two.
func New(cfg Config) *Prefetcher {
	cfg.BufferSize = mem.CeilPow2(cfg.BufferSize, 64)
	cfg.IndexSize = mem.CeilPow2(cfg.IndexSize, 64)
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	p := &Prefetcher{
		cfg:   cfg,
		buf:   make([]entry, cfg.BufferSize),
		index: make([]int, cfg.IndexSize),
		q:     prefetch.NewOutQueue(4 * cfg.Width * cfg.Depth),
	}
	for i := range p.index {
		p.index[i] = -1
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "ghb" }

func (p *Prefetcher) key(line mem.Addr) int {
	return int(mem.FoldXOR(mem.Mix64(uint64(line)), mem.CeilLog2(p.cfg.IndexSize)))
}

// valid reports whether buffer position i still belongs to the current
// window (positions are reused; stale links must be detected).
func (p *Prefetcher) valid(i int) bool {
	if i < 0 {
		return false
	}
	e := p.buf[i]
	return e.seq > 0 && p.seq-e.seq <= uint64(p.cfg.BufferSize)
}

// Train implements prefetch.Prefetcher: GHB classically trains on
// misses; training on all accesses with the in-cache filter left to
// the memory system is the common ChampSim port.
func (p *Prefetcher) Train(a prefetch.Access) {
	if a.Hit {
		return
	}
	line := a.Addr.Line()
	k := p.key(line)

	// Walk prior occurrences: the entries that followed them in global
	// order are the temporal prediction.
	occ := p.index[k]
	for d := 0; d < p.cfg.Depth && p.valid(occ); d++ {
		for w := 1; w <= p.cfg.Width; w++ {
			next := occ + w
			if next >= len(p.buf) {
				next -= len(p.buf)
			}
			if !p.valid(next) || p.buf[next].seq <= p.buf[occ].seq {
				break
			}
			level := prefetch.LevelL1
			if d > 0 {
				level = prefetch.LevelL2
			}
			p.q.Push(prefetch.Request{Addr: p.buf[next].line, Level: level})
		}
		occ = p.buf[occ].prev
	}

	// Insert the new occurrence at the head, linking to the previous
	// one for this key.
	p.seq++
	prev := p.index[k]
	if !p.valid(prev) {
		prev = -1
	}
	p.buf[p.head] = entry{line: line, prev: prev, seq: p.seq}
	p.index[k] = p.head
	p.head++
	if p.head == len(p.buf) {
		p.head = 0
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

// StorageBits implements prefetch.Prefetcher: buffer entries hold a
// line address and a link; the index holds buffer positions.
func (p *Prefetcher) StorageBits() int {
	ptr := mem.CeilLog2(p.cfg.BufferSize)
	return p.cfg.BufferSize*(36+ptr) + p.cfg.IndexSize*ptr
}
