// Fixtures for the cyclemath analyzer: unsigned cycle/timestamp
// subtractions without a dominating comparison must be flagged.
package fixture

type mshr struct {
	readyCycle uint64
	lastStamp  uint64
}

// --- seeded violations ---

func latencyBad(now uint64, m mshr) uint64 {
	return now - m.readyCycle // want "may underflow"
}

func staleBad(now, deadline uint64) bool {
	return now-deadline > 100 // want "may underflow"
}

// --- clean idiomatic forms ---

func latencyGuarded(now uint64, m mshr) uint64 {
	if now >= m.readyCycle {
		return now - m.readyCycle
	}
	return 0
}

// An early exit on the opposite ordering dominates the rest of the
// function.
func earlyExitGuarded(now uint64, m mshr) uint64 {
	if now < m.readyCycle {
		return 0
	}
	return now - m.readyCycle
}

func elseGuarded(now uint64, m mshr) uint64 {
	if m.lastStamp > now {
		return 0
	} else {
		return now - m.lastStamp
	}
}

// Signed arithmetic wraps are a different hazard class.
func signedDelta(nowCycle, thenCycle int64) int64 { return nowCycle - thenCycle }

// No time vocabulary: plain index math is out of scope.
func plain(a, b uint64) uint64 { return a - b }

// Constant subtrahend offsets are out of scope.
func backOne(cycle uint64) uint64 { return cycle - 0 }

func suppressedOK(now, startCycle uint64) uint64 {
	//lint:ignore cyclemath monotonic by construction in this fixture
	return now - startCycle
}
