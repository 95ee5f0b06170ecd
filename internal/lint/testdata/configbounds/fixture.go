// Fixtures for the configbounds analyzer: literal field values in
// *Config composite literals must respect the ranges the simulator's
// constructors enforce at run time.
package fixture

// Config mimics the shape of the repo's cache/prefetcher configs: the
// analyzer matches any struct type named "...Config" by field name.
type Config struct {
	Sets            int
	Ways            int
	MSHRs           int
	PQSize          int
	PBEntries       int
	RegionBytes     int
	TriggerBits     int
	PCBits          int
	OPTCounterBits  int
	MonitoringRange int
	LowLevelDegree  int
}

type tunerConfig struct {
	PHTSets int
	FTWays  int
	Degree  int
}

// geometryTable must be ignored: same field names, not a Config type.
type geometryTable struct {
	Sets int
}

// --- seeded violations ---

var badGeometry = Config{
	Sets:   48, // want "Sets must be a positive power of two"
	Ways:   0,  // want "Ways must be >= 1"
	MSHRs:  -1, // want "MSHRs must be >= 1"
	PQSize: -8, // want "PQSize must be >= 0"
}

var badWidths = Config{
	RegionBytes:    96, // want "RegionBytes must be a power of two in \\[128, 4096\\]"
	TriggerBits:    13, // want "TriggerBits must be in \\[1, 12\\]"
	PCBits:         0,  // want "PCBits must be in \\[1, 16\\]"
	OPTCounterBits: 17, // want "OPTCounterBits must be in \\[1, 16\\]"
	PBEntries:      0,  // want "PBEntries must be >= 1"
}

// Cross-field checks fire when RegionBytes is literal in the same
// composite: 4096 bytes is 64 lines, needing 6 trigger bits and a
// monitoring range dividing 64.
var badCrossField = Config{
	RegionBytes:     4096,
	TriggerBits:     5, // want "TriggerBits 5 cannot index the 64 lines per region"
	MonitoringRange: 3, // want "MonitoringRange 3 must divide the 64 lines per region"
}

var badDegree = Config{
	LowLevelDegree: 100, // want "LowLevelDegree must be in \\[0, 64\\]"
}

// Suffix matching covers sweep/tuner configs too.
var badTuner = tunerConfig{
	PHTSets: 12, // want "PHTSets must be a positive power of two"
	FTWays:  -2, // want "FTWays must be >= 1"
	Degree:  65, // want "Degree must be in \\[0, 64\\]"
}

// --- clean forms ---

var good = Config{
	Sets: 64, Ways: 12, MSHRs: 16, PQSize: 8,
	RegionBytes: 4096, TriggerBits: 6, PCBits: 5,
	OPTCounterBits: 5, MonitoringRange: 2, PBEntries: 16,
	LowLevelDegree: 1,
}

// Unlimited degree (0) and empty prefetch queue are legal.
var goodEdges = Config{PQSize: 0, LowLevelDegree: 0, TriggerBits: 12}

// Wider trigger bits than the region needs are fine (Table X sweeps
// sub-line widths), as is a non-literal field the analyzer cannot see.
func scaled(mb int) Config {
	return Config{RegionBytes: 2048, TriggerBits: 9, Sets: 1 << mb}
}

// A field mentioning Sets on a non-Config type stays out of scope.
var plain = geometryTable{Sets: 48}

// Suppression works like every other analyzer.
var suppressed = Config{
	//lint:ignore configbounds modelling a deliberately broken geometry
	Sets: 48,
}
