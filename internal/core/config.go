// Package core implements the Pattern Merging Prefetcher (PMP), the
// paper's primary contribution: spatial patterns captured by an SMS
// framework are anchored on their trigger offset and merged into counter
// vectors held in two tagless direct-mapped tables (the Offset Pattern
// Table indexed by trigger offset and the PC Pattern Table indexed by
// hashed PC); prefetch targets are extracted by access frequency and the
// two predictions are arbitrated into per-offset target cache levels.
package core

import (
	"fmt"

	"pmp/internal/mem"
	"pmp/internal/sms"
)

// Scheme selects the prefetch-pattern extraction strategy (paper §IV-B).
type Scheme uint8

// Extraction schemes.
const (
	// AFE is Access-Frequency-based Extraction: counter/time >= threshold
	// (the paper's default).
	AFE Scheme = iota
	// ANE is Access-Number-based Extraction: counter >= absolute threshold.
	ANE
	// ARE is Access-Ratio-based Extraction: counter/sum >= threshold.
	ARE
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case AFE:
		return "AFE"
	case ANE:
		return "ANE"
	case ARE:
		return "ARE"
	default:
		return "invalid"
	}
}

// FeatureMode selects the prediction table structure (paper §IV-C and
// the §V-E3 ablations).
type FeatureMode uint8

// Feature modes.
const (
	// DualTables is the default: OPT (trigger offset) + PPT (PC) with
	// arbitration.
	DualTables FeatureMode = iota
	// OPTOnly uses a single Offset Pattern Table.
	OPTOnly
	// PPTOnly uses a single PC Pattern Table sized like the OPT.
	PPTOnly
	// Combined uses a single table indexed by PC concatenated with
	// trigger offset (2^(PCBits+TriggerBits) entries).
	Combined
)

// String implements fmt.Stringer.
func (m FeatureMode) String() string {
	switch m {
	case DualTables:
		return "dual"
	case OPTOnly:
		return "opt-only"
	case PPTOnly:
		return "ppt-only"
	case Combined:
		return "combined"
	default:
		return "invalid"
	}
}

// Config holds every preset parameter of PMP (paper Table II) plus the
// ablation knobs exercised in §V-E.
type Config struct {
	RegionBytes     int     // tracked region size (4096 default; Table IX)
	OPTCounterBits  int     // OPT counter width (5 default; Table X)
	PPTCounterBits  int     // PPT counter width (5)
	TriggerBits     int     // trigger-offset feature width (6 default; Table X)
	PCBits          int     // hashed-PC feature width (5)
	MonitoringRange int     // offsets per PPT counter (2 default; Table XI)
	TL1D            float64 // L1D confidence threshold (0.50)
	TL2C            float64 // L2C confidence threshold (0.15)
	ANEL1           uint32  // ANE absolute L1 threshold (16, §V-E2)
	ANEL2           uint32  // ANE absolute L2 threshold (5)
	Scheme          Scheme
	Feature         FeatureMode
	PBEntries       int // prefetch buffer entries (16)
	// LowLevelDegree caps L2C/LLC prefetches per prediction; 0 means
	// unlimited (default), as does any value of 63 or more, since a
	// region has at most 63 targets. 1 is the paper's PMP-Limit.
	LowLevelDegree int

	// Ablation switches (not part of the paper's design; used by the
	// harness to quantify individual mechanisms).
	//
	// NoHalving freezes counter vectors at saturation instead of
	// halving them (paper §IV-A aging disabled).
	NoHalving bool
	// NoResume disables the prefetch buffer's continue-on-reaccess
	// behaviour (paper §IV-B): pending targets drain only right after
	// their trigger.
	NoResume bool
	// CrossRegion is an extension beyond the paper ("PMP does not
	// support cross-page prefetching", §V-E4): anchored targets that
	// wrap past the region end are projected into the *next* region
	// instead of wrapping back. For forward streams the wrapped targets
	// are behind the access front and useless; projecting them forward
	// prefetches the next region's head before its trigger.
	CrossRegion bool

	// Capture-framework geometry (paper Table III).
	FTSets, FTWays int
	ATSets, ATWays int
}

// DefaultConfig returns the paper's Table II/III configuration.
func DefaultConfig() Config {
	return Config{
		RegionBytes:     mem.DefaultRegion,
		OPTCounterBits:  5,
		PPTCounterBits:  5,
		TriggerBits:     6,
		PCBits:          5,
		MonitoringRange: 2,
		TL1D:            0.50,
		TL2C:            0.15,
		ANEL1:           16,
		ANEL2:           5,
		Scheme:          AFE,
		Feature:         DualTables,
		PBEntries:       16,
		FTSets:          8, FTWays: 8,
		ATSets: 2, ATWays: 16,
	}
}

// PatternLen returns the OPT pattern length (lines per region).
func (c Config) PatternLen() int { return c.RegionBytes / mem.LineBytes }

// PPTLen returns the coarse PPT pattern length.
func (c Config) PPTLen() int { return c.PatternLen() / c.MonitoringRange }

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.RegionBytes < 2*mem.LineBytes || c.RegionBytes > mem.PageBytes ||
		c.RegionBytes&(c.RegionBytes-1) != 0 {
		return fmt.Errorf("pmp: region bytes must be a power of two in [128, 4096], got %d", c.RegionBytes)
	}
	minTrigger := mem.CeilLog2(c.PatternLen())
	if c.TriggerBits < minTrigger || c.TriggerBits > 12 {
		return fmt.Errorf("pmp: trigger bits must be in [%d, 12], got %d", minTrigger, c.TriggerBits)
	}
	if c.PCBits < 1 || c.PCBits > 16 {
		return fmt.Errorf("pmp: PC bits must be in [1, 16], got %d", c.PCBits)
	}
	// The packed pattern engine is the only one, so its lane width
	// bounds every legal counter.
	if c.OPTCounterBits < 1 || c.OPTCounterBits > mem.MaxPackedBits ||
		c.PPTCounterBits < 1 || c.PPTCounterBits > mem.MaxPackedBits {
		return fmt.Errorf("pmp: counter bits must be in [1, %d]", mem.MaxPackedBits)
	}
	if c.MonitoringRange < 1 || c.PatternLen()%c.MonitoringRange != 0 {
		return fmt.Errorf("pmp: monitoring range %d must divide pattern length %d",
			c.MonitoringRange, c.PatternLen())
	}
	if !(c.TL2C > 0 && c.TL2C <= c.TL1D && c.TL1D <= 1) {
		return fmt.Errorf("pmp: thresholds must satisfy 0 < TL2C <= TL1D <= 1 (%v, %v)", c.TL1D, c.TL2C)
	}
	if c.PBEntries < 1 {
		return fmt.Errorf("pmp: prefetch buffer needs at least one entry, got %d", c.PBEntries)
	}
	if c.Scheme > ARE {
		return fmt.Errorf("pmp: unknown extraction scheme %d", c.Scheme)
	}
	if c.Feature > Combined {
		return fmt.Errorf("pmp: unknown feature mode %d", c.Feature)
	}
	if c.LowLevelDegree < 0 {
		return fmt.Errorf("pmp: low-level degree must be >= 0, got %d", c.LowLevelDegree)
	}
	return c.smsConfig().Validate()
}

// smsConfig is the capture geometry New builds; the region size must
// already be valid.
func (c Config) smsConfig() sms.Config {
	return sms.Config{
		Region: mem.NewRegion(c.RegionBytes),
		FTSets: c.FTSets, FTWays: c.FTWays,
		ATSets: c.ATSets, ATWays: c.ATWays,
	}
}

// StorageBreakdown itemizes the hardware budget like the paper's
// Table III.
type StorageBreakdown struct {
	FilterTableBits int
	AccumTableBits  int
	OPTBits         int
	PPTBits         int
	PrefetchBufBits int
	TotalBits       int
}

// TotalBytes returns the total budget in bytes.
func (s StorageBreakdown) TotalBytes() float64 { return float64(s.TotalBits) / 8 }

// Storage computes the Table III accounting for the configuration.
func (c Config) Storage() StorageBreakdown {
	capture := c.smsConfig()
	ftBits, atBits := capture.TableBits()

	var optBits, pptBits int
	switch c.Feature {
	case DualTables:
		optBits = (1 << c.TriggerBits) * c.PatternLen() * c.OPTCounterBits
		pptBits = (1 << c.PCBits) * c.PPTLen() * c.PPTCounterBits
	case OPTOnly:
		optBits = (1 << c.TriggerBits) * c.PatternLen() * c.OPTCounterBits
	case PPTOnly:
		// Sized like the OPT (paper §V-E3: "a single PPT with the same
		// size as the OPT").
		pptBits = (1 << c.TriggerBits) * c.PatternLen() * c.OPTCounterBits
	case Combined:
		optBits = (1 << (c.TriggerBits + c.PCBits)) * c.PatternLen() * c.OPTCounterBits
	}

	s := StorageBreakdown{
		FilterTableBits: ftBits,
		AccumTableBits:  atBits,
		OPTBits:         optBits,
		PPTBits:         pptBits,
		PrefetchBufBits: pbStorageBits(c.PBEntries, capture.Region),
	}
	s.TotalBits = s.FilterTableBits + s.AccumTableBits + s.OPTBits + s.PPTBits + s.PrefetchBufBits
	return s
}
