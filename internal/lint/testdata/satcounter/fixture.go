// Fixtures for the satcounter analyzer: unguarded updates of fields
// marked as saturating counters must be flagged; the guarded idiom and
// the mem.SatInc/SatDec helpers must pass.
package fixture

import "pmp/internal/mem"

type entry struct {
	conf    uint8 // 2-bit saturating confidence
	satHits uint8 // marked by name
	plain   uint64
}

// --- seeded violations ---

func (e *entry) incBad() {
	e.conf++ // want "unguarded"
}

func (e *entry) decBad() {
	e.conf-- // want "unguarded"
}

func (e *entry) addBad() {
	e.satHits += 2 // want "unguarded"
}

// --- clean idiomatic forms ---

func (e *entry) incGuarded(max uint8) {
	if e.conf < max {
		e.conf++
	}
}

func (e *entry) decGuarded() {
	if e.conf > 0 {
		e.conf--
	}
}

// An early exit at the ceiling dominates the rest of the method.
func (e *entry) incEarlyExit(max uint8) {
	if e.satHits >= max {
		return
	}
	e.satHits++
}

func (e *entry) helperOK() {
	e.conf = mem.SatInc(e.conf, 3)
	e.satHits = mem.SatDec(e.satHits, 0)
}

// Unmarked fields are ordinary statistics counters.
func (e *entry) statOK() {
	e.plain++
}

func (e *entry) suppressedOK() {
	//lint:ignore satcounter fixture demonstrates suppression
	e.conf++
}
