// Package misb implements the Managed Irregular Stream Buffer (Wu et
// al., ISCA'19), the §VI-C follow-up to ISB: the same
// physical↔structural linearization, but with metadata managed as
// small on-chip caches backed by (modelled) off-chip storage, and
// Bloom filters that suppress pointless metadata fetches for addresses
// that were never assigned a structural mapping.
//
// Modelling: the off-chip backing store is an unbounded map (its
// residence is what the original pays DRAM traffic for); the on-chip
// PS/SP caches are bounded; a metadata access that misses on-chip but
// hits the backing store pays nothing here except that the prediction
// is skipped for that access (the fetch would arrive too late), which
// is the first-order behavioural effect of metadata misses.
package misb

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Config tunes the MISB.
type Config struct {
	OnChipEntries int // per-direction on-chip metadata cache entries
	Degree        int
	StreamMax     uint64
	BloomBits     int // Bloom filter size (power of two)
}

// DefaultConfig returns a configuration with a modest on-chip budget.
func DefaultConfig() Config {
	return Config{OnChipEntries: 2048, Degree: 3, StreamMax: 256, BloomBits: 1 << 15}
}

type cacheEntry[K comparable, V any] struct {
	valid bool
	key   K
	val   V
}

// metaCache is a tiny direct-mapped metadata cache.
type metaCache[K comparable, V any] struct {
	slots []cacheEntry[K, V]
	hash  func(K) uint64
}

func newMetaCache[K comparable, V any](entries int, hash func(K) uint64) *metaCache[K, V] {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &metaCache[K, V]{slots: make([]cacheEntry[K, V], n), hash: hash}
}

func (c *metaCache[K, V]) get(k K) (V, bool) {
	e := &c.slots[c.hash(k)&uint64(len(c.slots)-1)]
	if e.valid && e.key == k {
		return e.val, true
	}
	var zero V
	return zero, false
}

func (c *metaCache[K, V]) put(k K, v V) {
	e := &c.slots[c.hash(k)&uint64(len(c.slots)-1)]
	*e = cacheEntry[K, V]{valid: true, key: k, val: v}
}

// Prefetcher is the MISB. Construct with New.
type Prefetcher struct {
	cfg Config

	// Off-chip backing store (unbounded; the original keeps this in
	// DRAM).
	psStore map[mem.Addr]uint64
	spStore map[uint64]mem.Addr
	// On-chip metadata caches.
	psCache *metaCache[mem.Addr, uint64]
	spCache *metaCache[uint64, mem.Addr]
	// Bloom filter over lines that have a PS mapping at all: a miss
	// here skips the (pointless) metadata fetch.
	bloom []uint64

	nextStructural uint64
	lastLine       map[uint64]mem.Addr
	q              *prefetch.OutQueue
}

// New constructs a MISB.
func New(cfg Config) *Prefetcher {
	if cfg.OnChipEntries < 64 {
		cfg.OnChipEntries = 64
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	if cfg.StreamMax == 0 {
		cfg.StreamMax = 256
	}
	if cfg.BloomBits < 64 {
		cfg.BloomBits = 64
	}
	for cfg.BloomBits&(cfg.BloomBits-1) != 0 {
		cfg.BloomBits++
	}
	return &Prefetcher{
		cfg:     cfg,
		psStore: make(map[mem.Addr]uint64),
		spStore: make(map[uint64]mem.Addr),
		psCache: newMetaCache[mem.Addr, uint64](cfg.OnChipEntries,
			func(a mem.Addr) uint64 { return mem.Mix64(uint64(a)) }),
		spCache:  newMetaCache[uint64, mem.Addr](cfg.OnChipEntries, mem.Mix64),
		bloom:    make([]uint64, cfg.BloomBits/64),
		lastLine: make(map[uint64]mem.Addr, 64),
		q:        prefetch.NewOutQueue(4 * cfg.Degree),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "misb" }

func (p *Prefetcher) bloomAdd(line mem.Addr) {
	h := mem.Mix64(uint64(line)) & uint64(p.cfg.BloomBits-1)
	p.bloom[h/64] |= 1 << (h % 64)
}

func (p *Prefetcher) bloomHas(line mem.Addr) bool {
	h := mem.Mix64(uint64(line)) & uint64(p.cfg.BloomBits-1)
	return p.bloom[h/64]&(1<<(h%64)) != 0
}

func (p *Prefetcher) assign(line mem.Addr, s uint64) {
	p.psStore[line] = s
	p.spStore[s] = line
	p.psCache.put(line, s)
	p.spCache.put(s, line)
	p.bloomAdd(line)
}

// lookupPS translates physical→structural: the Bloom filter rejects
// unmapped lines cheaply; an on-chip miss with a backing-store hit
// refills the cache but yields no prediction this time (the metadata
// fetch would be too late).
func (p *Prefetcher) lookupPS(line mem.Addr) (uint64, bool) {
	if !p.bloomHas(line) {
		return 0, false
	}
	if s, ok := p.psCache.get(line); ok {
		return s, true
	}
	if s, ok := p.psStore[line]; ok {
		p.psCache.put(line, s) // metadata fetch completes for next time
	}
	return 0, false
}

func (p *Prefetcher) lookupSP(s uint64) (mem.Addr, bool) {
	if a, ok := p.spCache.get(s); ok {
		return a, true
	}
	if a, ok := p.spStore[s]; ok {
		p.spCache.put(s, a)
	}
	return 0, false
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(a prefetch.Access) {
	if a.Hit {
		return
	}
	line := a.Addr.Line()

	if last, ok := p.lastLine[a.PC]; ok && last != line {
		ls, ok := p.psStore[last]
		if !ok {
			ls = p.nextStructural
			p.nextStructural += p.cfg.StreamMax
			p.assign(last, ls)
		}
		if _, mapped := p.psStore[line]; !mapped && (ls+1)%p.cfg.StreamMax != 0 {
			p.assign(line, ls+1)
		}
	}
	p.lastLine[a.PC] = line
	if len(p.lastLine) > 256 {
		clear(p.lastLine)
	}

	s, ok := p.lookupPS(line)
	if !ok {
		return
	}
	for d := 1; d <= p.cfg.Degree; d++ {
		phys, ok := p.lookupSP(s + uint64(d))
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

// StorageBits implements prefetch.Prefetcher: MISB's point is that the
// ON-CHIP budget is small (caches + Bloom filter); the backing store
// lives off-chip and is excluded, as in the original's accounting.
func (p *Prefetcher) StorageBits() int {
	return p.cfg.OnChipEntries*2*(36+24) + p.cfg.BloomBits
}
