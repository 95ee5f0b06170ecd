// Package mem provides the low-level address arithmetic, bit-vector and
// counter-vector primitives shared by the simulator and by every
// prefetcher in this repository.
//
// Terminology follows the PMP paper (MICRO 2022):
//
//   - A cache line is 64 bytes.
//   - A memory region is a 4KB (by default) aligned block of 64 lines.
//   - The offset of an access is the index of its line within its region.
//   - The trigger offset of a region is the offset of the first access
//     observed in that region.
package mem

import "math/bits"

// Fundamental geometry constants. Line size is fixed at 64 bytes across
// the whole repository (as in ChampSim); region size is configurable per
// prefetcher but defaults to a 4KB page.
const (
	LineBytes     = 64   // bytes per cache line
	LineShift     = 6    // log2(LineBytes)
	PageBytes     = 4096 // bytes per page; also the default region size
	PageShift     = 12   // log2(PageBytes)
	LinesPerPage  = PageBytes / LineBytes
	DefaultRegion = PageBytes
	// PageOffsetBits is the width of a line offset within a page
	// (log2(LinesPerPage)), the shift used when packing a PC with a
	// trigger offset into one key.
	PageOffsetBits = PageShift - LineShift
)

// Addr is a byte-granular virtual address.
type Addr uint64

// Line returns the cache-line address (line-aligned byte address).
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// LineID returns the line number (address >> LineShift).
func (a Addr) LineID() uint64 { return uint64(a) >> LineShift }

// Page returns the page-aligned byte address.
func (a Addr) Page() Addr { return a &^ (PageBytes - 1) }

// PageID returns the page number (address >> PageShift).
func (a Addr) PageID() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the line offset of the address within its 4KB page,
// in [0, LinesPerPage).
func (a Addr) PageOffset() int { return int(uint64(a)>>LineShift) & (LinesPerPage - 1) }

// Region describes an aligned power-of-two block of lines used as the
// pattern-tracking granule. A Region value is cheap and immutable.
type Region struct {
	bytes  uint64 // region size in bytes (power of two, >= LineBytes)
	shift  uint   // log2(bytes)
	lines  int    // lines per region
	lshift uint   // log2(lines)
}

// NewRegion returns a Region of the given size in bytes. Size must be a
// power of two between LineBytes and PageBytes; NewRegion panics
// otherwise, since a malformed region is a programming error rather than
// a runtime condition.
func NewRegion(sizeBytes int) Region {
	if sizeBytes < LineBytes || sizeBytes > PageBytes || sizeBytes&(sizeBytes-1) != 0 {
		panic("mem: region size must be a power of two in [64, 4096]")
	}
	shift := uint(CeilLog2(sizeBytes))
	return Region{
		bytes:  uint64(sizeBytes),
		shift:  shift,
		lines:  sizeBytes / LineBytes,
		lshift: shift - LineShift,
	}
}

// Bytes returns the region size in bytes.
func (r Region) Bytes() int { return int(r.bytes) }

// Shift returns log2 of the region size in bytes.
func (r Region) Shift() int { return int(r.shift) }

// Lines returns the number of cache lines per region (the pattern length).
func (r Region) Lines() int { return r.lines }

// ID returns the region number of an address (address >> log2(size)).
func (r Region) ID(a Addr) uint64 { return uint64(a) >> r.shift }

// Base returns the region-aligned byte address containing a.
func (r Region) Base(a Addr) Addr { return a &^ Addr(r.bytes-1) }

// Offset returns the line offset of a within its region, in [0, Lines()).
func (r Region) Offset(a Addr) int {
	return int(uint64(a)>>LineShift) & (r.lines - 1)
}

// LineAddr reconstructs the line-aligned byte address for the given
// region ID and line offset.
func (r Region) LineAddr(regionID uint64, offset int) Addr {
	return Addr(regionID<<r.shift | uint64(offset)<<LineShift)
}

// CeilLog2 returns the smallest b with 1<<b >= n (0 for n <= 1): the
// index width of an n-entry table.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// CeilPow2 returns the smallest power of two that is at least both n
// and floor.
func CeilPow2(n, floor int) int {
	return 1 << CeilLog2(max(n, floor))
}
