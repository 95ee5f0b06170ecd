package trace

import (
	"math"

	"pmp/internal/mem"
)

// The generators in this file are deterministic: the same (seed, length,
// params) always yields the same record stream, so experiments are
// reproducible without storing multi-gigabyte trace files. Each
// generator mimics the pattern structure of one workload family the
// paper evaluates (see DESIGN.md §1). Each draws from an rng, which
// reproduces the value stream of math/rand seeded alike (rng.go), so a
// trace is defined by its seed's math/rand stream.

type base struct {
	name    string
	seed    int64
	length  int
	gapN    bound // Intn(2*GapMean+1)
	emitted int
	rng     rng
}

func newBase(name string, seed int64, length, gapMean int) base {
	b := base{name: name, seed: seed, length: length, gapN: newBound(2*gapMean + 1)}
	b.resetBase()
	return b
}

func (b *base) Name() string { return b.name }

// resetBase rewinds the random stream to the start of b.seed's.
func (b *base) resetBase() {
	b.rng.Seed(b.seed)
	b.emitted = 0
}

// setSeed replaces the seed the next Reset starts from.
func (b *base) setSeed(seed int64) { b.seed = seed }

func (b *base) done() bool { return b.emitted >= b.length }

// gap draws a non-load gap uniform in [0, 2*GapMean], which keeps the
// instruction mix plausible.
func (b *base) gap() uint16 { return uint16(b.rng.intn(b.gapN)) }

// line returns the byte address of lineID with a random intra-line
// offset: Intn(8), which masks.
func (b *base) line(lineID uint64) mem.Addr {
	return mem.Addr(lineID*mem.LineBytes + uint64(b.rng.Int31()&7)*8)
}

// elem returns the byte address of the idx-th 8-byte element.
func elem(idx uint64) mem.Addr { return mem.Addr(idx * 8) }

const elemsPerLine = mem.LineBytes / 8

// --- Stream: sequential scans (streaming SPEC workloads, e.g. libquantum/lbm) ---

// StreamParams tunes the Stream generator.
type StreamParams struct {
	Streams     int     // concurrent sequential streams
	RestartProb float64 // per-access probability a stream jumps to a new base
	WorkingSet  uint64  // bytes of address space streams roam over
	GapMean     int     // mean non-load gap
}

// DefaultStreamParams returns sensible defaults.
func DefaultStreamParams() StreamParams {
	return StreamParams{Streams: 4, RestartProb: 0.0005, WorkingSet: 64 << 20, GapMean: 4}
}

// Stream emits interleaved ascending element scans (8-byte elements, so
// each line is touched several times before the scan advances): dense
// full-region patterns with trigger offsets concentrated at region
// starts, and the intra-line reuse real streaming code exhibits.
type Stream struct {
	base
	p        StreamParams
	streamsN bound
	pcs      []uint64
	pos      []uint64 // element index per stream
}

// NewStream constructs a Stream generator.
func NewStream(name string, seed int64, length int, p StreamParams) *Stream {
	s := &Stream{
		base: newBase(name, seed, length, p.GapMean), p: p, streamsN: newBound(p.Streams),
		pcs: make([]uint64, p.Streams), pos: make([]uint64, p.Streams),
	}
	s.init()
	return s
}

func (s *Stream) init() {
	for i := range s.pcs {
		s.pcs[i] = 0x400000 + uint64(i)*0x40
		s.pos[i] = uint64(s.rng.Int63n(int64(s.p.WorkingSet/8))) &^ (elemsPerLine - 1)
	}
}

// Reset implements Source.
func (s *Stream) Reset() { s.resetBase(); s.init() }

// Next implements Source.
func (s *Stream) Next() (Record, bool) {
	if s.done() {
		return Record{}, false
	}
	s.emitted++
	i := s.rng.intn(s.streamsN)
	if s.rng.Float64() < s.p.RestartProb {
		s.pos[i] = uint64(s.rng.Int63n(int64(s.p.WorkingSet/8))) &^ (elemsPerLine - 1)
	}
	r := Record{PC: s.pcs[i], Addr: elem(s.pos[i]), Gap: s.gap()}
	s.pos[i]++
	return r, true
}

// --- Stride: constant-stride walkers (astar-like slashes) ---

// StrideParams tunes the Stride generator.
type StrideParams struct {
	Walkers    int   // concurrent strided walkers
	Strides    []int // line strides to cycle among (paper Fig 5b shows 3)
	WorkingSet uint64
	GapMean    int
	PhaseLen   int // accesses before a walker re-bases
}

// DefaultStrideParams returns sensible defaults.
func DefaultStrideParams() StrideParams {
	return StrideParams{Walkers: 3, Strides: []int{2, 3, 4}, WorkingSet: 3 << 20, GapMean: 8, PhaseLen: 4096}
}

// Stride emits constant-stride scans; patterns are evenly spaced bits
// whose spacing equals the stride, clustering cleanly by trigger offset.
// Each strided line is read AccessesPerLine times in a row (fields of a
// struct), giving realistic intra-line reuse.
type Stride struct {
	base
	p        StrideParams
	walkersN bound
	stridesN bound
	pos      []uint64
	stride   []int
	left     []int
	sub      []int
}

// accessesPerStrideLine is the number of consecutive reads per strided
// line (struct fields touched per element).
const accessesPerStrideLine = 4

// NewStride constructs a Stride generator.
func NewStride(name string, seed int64, length int, p StrideParams) *Stride {
	s := &Stride{
		base: newBase(name, seed, length, p.GapMean), p: p,
		walkersN: newBound(p.Walkers), stridesN: newBound(len(p.Strides)),
		pos: make([]uint64, p.Walkers), stride: make([]int, p.Walkers),
		left: make([]int, p.Walkers), sub: make([]int, p.Walkers),
	}
	s.init()
	return s
}

func (s *Stride) init() {
	clear(s.sub)
	for i := range s.pos {
		s.rebase(i)
	}
}

func (s *Stride) rebase(i int) {
	s.pos[i] = uint64(s.rng.Int63n(int64(s.p.WorkingSet / mem.LineBytes)))
	s.stride[i] = s.p.Strides[s.rng.intn(s.stridesN)]
	s.left[i] = s.p.PhaseLen
}

// Reset implements Source.
func (s *Stride) Reset() { s.resetBase(); s.init() }

// Next implements Source.
func (s *Stride) Next() (Record, bool) {
	if s.done() {
		return Record{}, false
	}
	s.emitted++
	i := s.rng.intn(s.walkersN)
	if s.left[i] <= 0 {
		s.rebase(i)
	}
	s.left[i]--
	pc := 0x500000 + uint64(i)*0x40 + uint64(s.stride[i])*4
	r := Record{PC: pc, Addr: s.line(s.pos[i]), Gap: s.gap()}
	s.sub[i]++
	if s.sub[i] >= accessesPerStrideLine {
		s.sub[i] = 0
		s.pos[i] += uint64(s.stride[i])
	}
	return r, true
}

// --- Backward: MCF-like backward array walks ---

// BackwardParams tunes the Backward generator.
type BackwardParams struct {
	Walkers    int
	WorkingSet uint64
	LocalProb  float64 // fraction of accesses in the local forward window
	GapMean    int
}

// DefaultBackwardParams returns sensible defaults.
func DefaultBackwardParams() BackwardParams {
	return BackwardParams{Walkers: 3, WorkingSet: 48 << 20, LocalProb: 0.35, GapMean: 4}
}

// Backward reproduces the MCF behaviour from the paper's §III
// discussion: loops walk a big array backward via pred pointers, so
// regions are entered at their last line (big trigger offsets) and then
// filled descending; a second population of accesses forms the "blue
// dotted slash" of small forward offsets around the current position.
type Backward struct {
	base
	p        BackwardParams
	walkersN bound
	pos      []uint64 // current line of each backward walker
	sub      []int    // intra-line accesses left for the current line
	local    uint64   // current line of the local-window population
}

// NewBackward constructs a Backward generator.
func NewBackward(name string, seed int64, length int, p BackwardParams) *Backward {
	b := &Backward{
		base: newBase(name, seed, length, p.GapMean), p: p, walkersN: newBound(p.Walkers),
		pos: make([]uint64, p.Walkers), sub: make([]int, p.Walkers),
	}
	b.init()
	return b
}

func (b *Backward) init() {
	clear(b.sub)
	for i := range b.pos {
		b.rebase(i)
	}
	b.local = uint64(b.rng.Int63n(int64(b.p.WorkingSet / mem.LineBytes)))
}

func (b *Backward) rebase(i int) {
	// Start at the end of a region-aligned block so the first access in
	// each region has the maximal trigger offset.
	blocks := b.p.WorkingSet / mem.PageBytes
	blk := uint64(b.rng.Int63n(int64(blocks)))
	b.pos[i] = blk*mem.LinesPerPage + mem.LinesPerPage - 1
}

// Reset implements Source.
func (b *Backward) Reset() { b.resetBase(); b.init() }

// Next implements Source.
func (b *Backward) Next() (Record, bool) {
	if b.done() {
		return Record{}, false
	}
	b.emitted++
	if b.rng.Float64() < b.p.LocalProb {
		// Local forward window around a slowly advancing pointer.
		delta := uint64(b.rng.Int31() & 3) // Intn(4)
		r := Record{PC: 0x600000, Addr: b.line(b.local + delta), Gap: b.gap()}
		if b.rng.Float64() < 0.3 {
			b.local++
		}
		return r, true
	}
	i := b.rng.intn(b.walkersN)
	pc := 0x601000 + uint64(i)*0x40 // the two pred-chasing loops
	// Walking ->pred pointers: each node address comes from the
	// previous load.
	r := Record{PC: pc, Addr: b.line(b.pos[i]), Gap: b.gap(), Dep: DepChain}
	b.sub[i]++
	if b.sub[i] < 2 { // two node fields per line
		return r, true
	}
	b.sub[i] = 0
	if b.pos[i] == 0 || b.rng.Float64() < 0.002 {
		b.rebase(i)
	} else {
		b.pos[i]--
	}
	return r, true
}

// --- Graph: Ligra-like frontier traversal ---

// GraphParams tunes the Graph generator.
type GraphParams struct {
	Vertices   int
	MaxDegree  int
	RankBytes  uint64  // size of the per-vertex property array
	EdgeBytes  uint64  // size of the edge array
	RandomProb float64 // property-array accesses interleaved per edge
	GapMean    int
}

// DefaultGraphParams returns sensible defaults.
func DefaultGraphParams() GraphParams {
	return GraphParams{
		Vertices: 1 << 20, MaxDegree: 48,
		RankBytes: 16 << 20, EdgeBytes: 96 << 20,
		RandomProb: 0.2, GapMean: 6,
	}
}

// Graph mimics the memory structure of Ligra push/pull iterations over
// a CSR graph:
//
//   - The edge array is consumed in power-law neighbor-list bursts.
//     Because CSR stores consecutive vertices' lists adjacently and
//     frontiers are processed in vertex order, bursts mostly continue
//     where the previous one ended, with occasional jumps when the
//     frontier is sparse.
//   - Property (rank) lookups interleave: partly a sequential sweep of
//     the property array (push iterations), partly random (pull
//     indexing by neighbor ID) — the genuinely irregular component.
type Graph struct {
	base
	p        GraphParams
	burstPos uint64 // current edge-array line
	burstLen int    // lines left in the current neighbor burst
	burstSub int    // intra-line edge reads left
	rankSeq  uint64 // sequential property-scan position (element index)
}

// NewGraph constructs a Graph generator.
func NewGraph(name string, seed int64, length int, p GraphParams) *Graph {
	g := &Graph{base: newBase(name, seed, length, p.GapMean), p: p}
	g.init()
	return g
}

func (g *Graph) init() {
	g.burstPos = uint64(g.rng.Int63n(int64(g.p.EdgeBytes / mem.LineBytes)))
	g.burstLen, g.burstSub = 0, 0
	g.rankSeq = uint64(g.rng.Int63n(int64(g.p.RankBytes/8))) &^ (elemsPerLine - 1)
}

// Reset implements Source.
func (g *Graph) Reset() { g.resetBase(); g.init() }

func (g *Graph) newBurst() {
	// Power-law degree: most vertices have few neighbors, a heavy tail
	// has many.
	u := g.rng.Float64()
	if u < 1e-6 {
		u = 1e-6
	}
	deg := 1 + int(math.Pow(u, -0.6))
	if deg > g.p.MaxDegree {
		deg = g.p.MaxDegree
	}
	g.burstLen = deg
	if g.rng.Float64() < 0.2 {
		// Sparse frontier: jump to an unrelated part of the edge array.
		g.burstPos = uint64(g.rng.Int63n(int64(g.p.EdgeBytes / mem.LineBytes)))
	}
	// Dense frontier: the next vertex's list starts right after the
	// previous one, so burstPos simply continues.
}

// Next implements Source.
func (g *Graph) Next() (Record, bool) {
	if g.done() {
		return Record{}, false
	}
	g.emitted++
	if g.rng.Float64() < g.p.RandomProb {
		if g.rng.Float64() < 0.5 {
			// Pull-style property lookup. Vertices are visited with
			// frequency proportional to their degree, so the power-law
			// head dominates: hot vertices concentrate into a small,
			// cacheable prefix of the property array.
			// x2*x2 is math.Pow(x, 4) exactly for every x Float64
			// returns (0 or at least 2^-63): Pow squares the Frexp
			// mantissa twice and then rescales by a power of two.
			lines := float64(g.p.RankBytes / mem.LineBytes)
			x := g.rng.Float64()
			x2 := x * x
			l := uint64(lines * (x2 * x2))
			// rank[edge[i]]: the address depends on the edge load.
			return Record{PC: 0x700000, Addr: g.line(l), Gap: g.gap(), Dep: DepPrev}, true
		}
		// Push-style property sweep: sequential elements.
		r := Record{PC: 0x700080, Addr: elem(g.rankSeq), Gap: g.gap()}
		g.rankSeq++
		if g.rankSeq >= g.p.RankBytes/8 {
			g.rankSeq = 0
		}
		return r, true
	}
	if g.burstLen <= 0 {
		g.newBurst()
	}
	r := Record{PC: 0x700040, Addr: g.line(g.burstPos), Gap: g.gap()}
	g.burstSub++
	if g.burstSub >= elemsPerLine { // 8-byte edge IDs: 8 reads per line
		g.burstSub = 0
		g.burstPos++
		if g.rng.Float64() < 0.15 {
			// Weighted/filtered edges: skip a line, breaking pure
			// constant-delta sequences while staying spatially dense.
			g.burstPos++
		}
		if g.burstPos >= g.p.EdgeBytes/mem.LineBytes {
			g.burstPos = 0
		}
		g.burstLen--
	}
	return r, true
}

// --- PointerChase: dependent random walks (low prefetchability) ---

// PointerChaseParams tunes the PointerChase generator.
type PointerChaseParams struct {
	WorkingSet uint64
	HotSet     uint64  // bytes of a hot subset
	HotProb    float64 // probability an access goes to the hot subset
	GapMean    int
}

// DefaultPointerChaseParams returns sensible defaults.
func DefaultPointerChaseParams() PointerChaseParams {
	return PointerChaseParams{WorkingSet: 64 << 20, HotSet: 1 << 20, HotProb: 0.5, GapMean: 8}
}

// PointerChase emits dependent-looking random accesses with a hot
// subset; it bounds how much any prefetcher can help and supplies the
// high-MPKI irregular end of the suite.
type PointerChase struct {
	base
	p PointerChaseParams
}

// NewPointerChase constructs a PointerChase generator.
func NewPointerChase(name string, seed int64, length int, p PointerChaseParams) *PointerChase {
	return &PointerChase{base: newBase(name, seed, length, p.GapMean), p: p}
}

// Reset implements Source.
func (pc *PointerChase) Reset() { pc.resetBase() }

// Next implements Source.
func (pc *PointerChase) Next() (Record, bool) {
	if pc.done() {
		return Record{}, false
	}
	pc.emitted++
	set := pc.p.WorkingSet
	basePC := uint64(0x800000)
	if pc.rng.Float64() < pc.p.HotProb {
		set = pc.p.HotSet
		basePC = 0x800040
	}
	l := uint64(pc.rng.Int63n(int64(set / mem.LineBytes)))
	return Record{PC: basePC, Addr: pc.line(l), Gap: pc.gap(), Dep: DepChain}, true
}

// --- Mixed: PARSEC-like phase alternation ---

// MixedParams tunes the Mixed generator.
type MixedParams struct {
	PhaseLen int // records per phase
	GapMean  int
}

// DefaultMixedParams returns sensible defaults.
func DefaultMixedParams() MixedParams { return MixedParams{PhaseLen: 8192, GapMean: 5} }

// Mixed cycles among streaming, strided and irregular phases the way
// pipeline-parallel PARSEC applications alternate between data-parallel
// sweeps and shared-structure updates.
type Mixed struct {
	base
	p     MixedParams
	phase int
	left  int
	inner phaseSource
	// kinds holds one generator per phase kind (streaming, strided,
	// pointer chase); each phase re-seeds one in place.
	kinds [3]phaseSource
}

// phaseSource is a generator Mixed can re-seed in place.
type phaseSource interface {
	Source
	setSeed(seed int64)
}

// NewMixed constructs a Mixed generator.
func NewMixed(name string, seed int64, length int, p MixedParams) *Mixed {
	m := &Mixed{base: newBase(name, seed, length, p.GapMean), p: p}
	// The seeds are placeholders: nextPhase re-seeds before any use.
	m.kinds = [3]phaseSource{
		NewStream(name, 0, length, StreamParams{
			Streams: 2, RestartProb: 0.001, WorkingSet: 32 << 20, GapMean: p.GapMean,
		}),
		NewStride(name, 0, length, StrideParams{
			Walkers: 2, Strides: []int{2, 5}, WorkingSet: 32 << 20,
			GapMean: p.GapMean, PhaseLen: 2048,
		}),
		NewPointerChase(name, 0, length, PointerChaseParams{
			WorkingSet: 32 << 20, HotSet: 2 << 20, HotProb: 0.6, GapMean: p.GapMean,
		}),
	}
	m.nextPhase()
	return m
}

// Reset implements Source.
func (m *Mixed) Reset() {
	m.resetBase()
	m.phase = 0
	m.nextPhase()
}

func (m *Mixed) nextPhase() {
	m.inner = m.kinds[m.phase%3]
	m.inner.setSeed(m.seed*131 + int64(m.phase))
	m.inner.Reset()
	m.phase++
	m.left = m.p.PhaseLen
}

// Next implements Source.
func (m *Mixed) Next() (Record, bool) {
	if m.done() {
		return Record{}, false
	}
	m.emitted++
	if m.left <= 0 {
		m.nextPhase()
	}
	m.left--
	r, _ := m.inner.Next()
	return r, true
}
