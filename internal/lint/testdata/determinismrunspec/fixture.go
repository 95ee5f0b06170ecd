// Fixtures for the determinism analyzer's job-identity rule. The test
// harness type-checks this package under an import path containing
// "internal/runspec"; wall-clock use is then forbidden inside the
// identity closure (RunSpec.ID and everything it calls) but fine
// elsewhere (progress reporting legitimately reads the clock).
package fixture

import (
	"fmt"
	"time"
)

// RunSpec stands in for the run description whose ID is job identity.
type RunSpec struct{ Name string }

// ID is the identity root.
func (rs RunSpec) ID() string {
	return fmt.Sprintf("%s-%s", rs.Name, salt())
}

// salt is inside the identity closure: flagged.
func salt() string {
	return time.Now().String() // want "time.Now inside job-identity code"
}

// snapshotAge is outside the closure: wall-clock is fine here.
func snapshotAge(start time.Time) time.Duration {
	return time.Since(start)
}
