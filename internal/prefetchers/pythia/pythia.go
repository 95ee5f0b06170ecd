// Package pythia implements the Pythia prefetcher (Bera et al.,
// MICRO'21): prefetching cast as reinforcement learning in hardware. A
// tabular Q-value store maps program-context states to prefetch-offset
// actions; rewards derived from prefetch outcomes (accurate/inaccurate)
// drive SARSA-style updates. Pythia emits at most one prefetch per
// demand access — the prefetch-depth limitation the PMP paper calls out.
//
// Faithful simplifications (see DESIGN.md): the two-feature QVStore
// (PC+Delta and PC+Offset planes, summed) is kept, but the reward
// schedule is condensed to accurate/inaccurate/no-prefetch values and
// timeliness is folded into the accurate reward; the original's
// bandwidth-aware reward level switching is omitted (our DRAM model
// exposes no such signal to prefetchers).
package pythia

import (
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// Pythia's parameters, near the original's scale (~25.5KB in the
// paper's Table V).
const (
	stateBits  = 10          // log2 of Q-table rows per feature plane
	alpha      = 0.0065 * 16 // learning rate, scaled for tabular convergence at trace lengths
	gamma      = 0.55        // discount for the SARSA bootstrap
	epsilonInv = 100         // explore every epsilonInv-th decision
	eqSize     = 256         // evaluation queue: in-flight actions awaiting outcomes

	rewardAccurate   float64 = 20
	rewardInaccurate float64 = -8
	rewardNoPrefetch float64 = -2
)

// actions are the candidate offset deltas; index 0 is the no-prefetch
// action (delta 0).
var actions = [...]int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, -1, -2, -3, -6}

type eqEntry struct {
	valid  bool
	line   mem.Addr
	state1 uint32
	state2 uint32
	action int
}

// Prefetcher is Pythia. Construct with New.
type Prefetcher struct {
	// Two Q-value planes (feature 1: PC+Delta, feature 2: PC+Offset);
	// the action value is their sum, as in the original QVStore. Each
	// plane is flat: state s's value for action a is at
	// s*len(actions)+a (see cell).
	q1 [len(actions) << stateBits]float64
	q2 [len(actions) << stateBits]float64

	lastLine map[uint64]uint64 // page -> last line (for delta feature)
	eq       [eqSize]eqEntry
	eqIdx    int
	decision uint64
	out      *prefetch.OutQueue

	// lastState tracks the previous decision for the SARSA bootstrap.
	hasPrev    bool
	prevS1     uint32
	prevS2     uint32
	prevAction int
}

// New constructs Pythia.
func New() *Prefetcher {
	return &Prefetcher{
		lastLine: make(map[uint64]uint64, 4096),
		out:      prefetch.NewOutQueue(8),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "pythia" }

func (p *Prefetcher) states(a prefetch.Access) (uint32, uint32) {
	page := a.Addr.PageID()
	line := a.Addr.LineID()
	delta := int64(0)
	if last, ok := p.lastLine[page]; ok {
		delta = int64(line) - int64(last)
	}
	p.lastLine[page] = line
	if len(p.lastLine) > 8192 {
		clear(p.lastLine) // bounded state, as hardware would have
	}
	s1 := uint32(mem.FoldXOR(mem.Mix64(a.PC^uint64(delta)<<40), stateBits))
	s2 := uint32(mem.FoldXOR(mem.Mix64(a.PC^uint64(a.Addr.PageOffset())<<48), stateBits))
	return s1, s2
}

// cell is the index of state s's value for action in a flat Q plane.
func (p *Prefetcher) cell(s uint32, action int) int {
	return int(s)*len(actions) + action
}

func (p *Prefetcher) qval(s1, s2 uint32, action int) float64 {
	return p.q1[p.cell(s1, action)] + p.q2[p.cell(s2, action)]
}

func (p *Prefetcher) bestAction(s1, s2 uint32) (int, float64) {
	best, bestQ := 0, p.qval(s1, s2, 0)
	for a := 1; a < len(actions); a++ {
		if q := p.qval(s1, s2, a); q > bestQ {
			best, bestQ = a, q
		}
	}
	return best, bestQ
}

// Train implements prefetch.Prefetcher: every demand access is a
// decision point — choose an offset action (or no-prefetch) from the
// Q-store and enqueue at most one prefetch.
func (p *Prefetcher) Train(a prefetch.Access) {
	s1, s2 := p.states(a)
	p.decision++

	action, bestQ := p.bestAction(s1, s2)
	if p.decision%epsilonInv == 0 {
		// Deterministic exploration: rotate through actions.
		action = int(p.decision/epsilonInv) % len(actions)
		bestQ = p.qval(s1, s2, action)
	}

	// SARSA bootstrap for the previous decision: move its value a step
	// toward the discounted value of the state that followed.
	if p.hasPrev {
		p.update(p.prevS1, p.prevS2, p.prevAction, gamma*bestQ)
	}
	p.hasPrev, p.prevS1, p.prevS2, p.prevAction = true, s1, s2, action

	delta := actions[action]
	if delta == 0 {
		// No-prefetch: mild negative reward keeps the agent exploring
		// prefetch actions on prefetchable streams.
		p.update(s1, s2, action, rewardNoPrefetch)
		return
	}
	target := int64(a.Addr.LineID()) + int64(delta)
	if target < 0 || mem.Addr(target*mem.LineBytes).PageID() != a.Addr.PageID() {
		p.update(s1, s2, action, rewardInaccurate)
		return
	}
	line := mem.Addr(target * mem.LineBytes)
	if p.out.Push(prefetch.Request{Addr: line, Level: prefetch.LevelL1}) {
		p.eq[p.eqIdx] = eqEntry{valid: true, line: line, state1: s1, state2: s2, action: action}
		p.eqIdx = (p.eqIdx + 1) % len(p.eq)
	}
}

// update applies one temporal-difference step moving the action's
// value toward target.
func (p *Prefetcher) update(s1, s2 uint32, action int, target float64) {
	delta := alpha * (target - p.qval(s1, s2, action))
	// Split the update across the two feature planes.
	p.q1[p.cell(s1, action)] += delta / 2
	p.q2[p.cell(s2, action)] += delta / 2
}

// IssueInto implements prefetch.Prefetcher.
//
//pmp:hotpath
func (p *Prefetcher) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	return p.out.PopInto(dst, max)
}

// OnEvict implements prefetch.Prefetcher.
func (p *Prefetcher) OnEvict(mem.Addr) {}

// OnFill implements prefetch.Prefetcher: reward the action that
// produced this prefetch.
func (p *Prefetcher) OnFill(line mem.Addr, _ prefetch.Level, useful bool) {
	for i := range p.eq {
		e := &p.eq[i]
		if e.valid && e.line == line {
			r := rewardInaccurate
			if useful {
				r = rewardAccurate
			}
			p.update(e.state1, e.state2, e.action, r)
			e.valid = false
			return
		}
	}
}

// StorageBits implements prefetch.Prefetcher: two Q planes of
// fixed-point action values plus the evaluation queue, near the
// original's 25.5KB.
func (p *Prefetcher) StorageBits() int {
	rows := 1 << stateBits
	qBits := 2 * rows * len(actions) * 5 // 5b quantized Q values
	eq := eqSize * (36 + 2*stateBits + 5)
	return qBits + eq
}
