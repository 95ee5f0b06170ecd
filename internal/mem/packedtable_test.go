package mem

import (
	"math/rand"
	"testing"
)

// randomAnchored returns a random anchored pattern (bit 0 always set).
func randomAnchored(rng *rand.Rand, length int) BitVector {
	p := NewBitVector(length)
	p.Set(0)
	for i := 1; i < length; i++ {
		if rng.Intn(3) == 0 {
			p.Set(i)
		}
	}
	return p
}

// checkRowsEqual compares every counter of a row across the two
// implementations.
func checkRowsEqual(t *testing.T, scalar *CounterTable, packed *PackedCounterTable, row int) {
	t.Helper()
	for j := 0; j < scalar.RowLen(); j++ {
		if s, p := scalar.RowCounter(row, j), packed.RowCounter(row, j); s != p {
			t.Fatalf("row %d counter %d: scalar %d, packed %d\nscalar %s\npacked %s",
				row, j, s, p, scalar.Row(row), packed.RowString(row))
		}
	}
}

// TestPackedMatchesScalar drives identical random operation streams
// through the scalar reference and the packed table at every counter
// width core.Config allows (1..MaxPackedBits), at the full 64-counter
// row and at a ragged row whose last word is partly empty, and demands
// bit-identical state and outputs at every step: counters, halve
// points, time counters, sums, and threshold-compare masks. Periodic
// merge bursts saturate the time counter, so every width halves
// through MergeRow, not just through HalveRow.
func TestPackedMatchesScalar(t *testing.T) {
	for bits := 1; bits <= MaxPackedBits; bits++ {
		for _, length := range []int{64, 33} {
			const entries = 3
			rng := rand.New(rand.NewSource(int64(length*100 + bits)))
			scalar := NewCounterTable(entries, length, bits)
			packed := NewPackedCounterTable(entries, length, bits)
			if packed.MaxCounter() != scalar.MaxCounter() {
				t.Fatalf("%d bits: MaxCounter: scalar %d, packed %d", bits, scalar.MaxCounter(), packed.MaxCounter())
			}
			ceil := int(scalar.MaxCounter())
			halvings := 0
			for step := 0; step < 4000; step++ {
				row := rng.Intn(entries)
				switch op := rng.Intn(100); {
				case op < 10:
					scalar.HalveRow(row)
					packed.HalveRow(row)
				case op < 20:
					p := randomAnchored(rng, length)
					scalar.MergeRowNoHalve(row, p)
					packed.MergeRowNoHalve(row, p)
				case op < 30:
					thr1 := uint32(rng.Intn(ceil + 3))
					thr2 := uint32(rng.Intn(ceil + 3))
					sg1, sg2 := scalar.CompareRow(row, thr1, thr2)
					pg1, pg2 := packed.CompareRow(row, thr1, thr2)
					if sg1 != pg1 || sg2 != pg2 {
						t.Fatalf("%d bits, len %d, row %d: CompareRow(%d, %d): scalar (%#x, %#x), packed (%#x, %#x)\nrow: %s",
							bits, length, row, thr1, thr2, sg1, sg2, pg1, pg2, scalar.Row(row))
					}
				default:
					burst := 1
					if step%1000 == 999 {
						// Merge until the time counter saturates.
						burst = max(1, int(scalar.MaxCounter()-scalar.RowTime(row)))
					}
					p := randomAnchored(rng, length)
					for k := 0; k < burst; k++ {
						sh := scalar.MergeRow(row, p)
						if ph := packed.MergeRow(row, p); sh != ph {
							t.Fatalf("%d bits, len %d, row %d, step %d: halved: scalar %v, packed %v", bits, length, row, step, sh, ph)
						}
						if sh {
							halvings++
						}
					}
				}
				if st, pt := scalar.RowTime(row), packed.RowTime(row); st != pt {
					t.Fatalf("%d bits, len %d, row %d: RowTime: scalar %d, packed %d", bits, length, row, st, pt)
				}
				if ss, ps := scalar.RowSum(row), packed.RowSum(row); ss != ps {
					t.Fatalf("%d bits, len %d, row %d: RowSum: scalar %d, packed %d", bits, length, row, ss, ps)
				}
				checkRowsEqual(t, scalar, packed, row)
			}
			if halvings == 0 {
				t.Errorf("%d bits, len %d: no MergeRow saturated its time counter; the halve path went untested", bits, length)
			}
			scalar.Reset()
			packed.Reset()
			for row := 0; row < entries; row++ {
				checkRowsEqual(t, scalar, packed, row)
			}
		}
	}
}

// FuzzPackedMerge feeds arbitrary geometries and pattern/threshold
// streams through both implementations of one row. The fuzzer picks
// the counter width (1..MaxPackedBits), the row length (1..64), two
// patterns merged alternately, and enough merges to saturate and
// halve the time counter at every width.
func FuzzPackedMerge(f *testing.F) {
	f.Add(uint8(5), uint8(64), uint64(0xFFFF_FFFF_0000_0001), uint64(0x8000_0000_0000_0001), uint16(3), uint16(1), uint16(2))
	f.Add(uint8(1), uint8(7), uint64(1), uint64(0x7F), uint16(20), uint16(0), uint16(31))
	f.Add(uint8(16), uint8(33), ^uint64(0), uint64(0x5555_5555_5555_5555), uint16(65535), uint16(40000), uint16(65535))
	f.Fuzz(func(t *testing.T, width, size uint8, patA, patB uint64, merges, thr1, thr2 uint16) {
		bits := 1 + int(width)%MaxPackedBits
		length := 1 + int(size)%64
		scalar := NewCounterTable(1, length, bits)
		packed := NewPackedCounterTable(1, length, bits)
		ceil := scalar.MaxCounter()
		// Merged patterns must be anchored: force the trigger bit on.
		pats := [2]BitVector{
			{bits: patA&mask(length) | 1, n: length},
			{bits: patB&mask(length) | 1, n: length},
		}
		for i := 0; i < int(merges)%(2*int(ceil)+2)+1; i++ {
			if sh, ph := scalar.MergeRow(0, pats[i&1]), packed.MergeRow(0, pats[i&1]); sh != ph {
				t.Fatalf("%d bits, len %d, merge %d: halved: scalar %v, packed %v", bits, length, i, sh, ph)
			}
		}
		t1, t2 := uint32(thr1)%(ceil+3), uint32(thr2)%(ceil+3)
		sg1, sg2 := scalar.CompareRow(0, t1, t2)
		pg1, pg2 := packed.CompareRow(0, t1, t2)
		if sg1 != pg1 || sg2 != pg2 {
			t.Fatalf("%d bits, len %d: CompareRow(%d, %d): scalar (%#x, %#x), packed (%#x, %#x)",
				bits, length, t1, t2, sg1, sg2, pg1, pg2)
		}
		checkRowsEqual(t, scalar, packed, 0)
		if st, pt := scalar.RowTime(0), packed.RowTime(0); st != pt {
			t.Fatalf("RowTime: scalar %d, packed %d", st, pt)
		}
		if ss, ps := scalar.RowSum(0), packed.RowSum(0); ss != ps {
			t.Fatalf("RowSum: scalar %d, packed %d", ss, ps)
		}
	})
}

func TestPackedPanicsMirrorScalar(t *testing.T) {
	packed := NewPackedCounterTable(1, 8, 4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	short := NewBitVector(4)
	short.Set(0)
	mustPanic("length mismatch", func() { packed.MergeRow(0, short) })
	unanchored := NewBitVector(8)
	unanchored.Set(3)
	mustPanic("unanchored", func() { packed.MergeRow(0, unanchored) })
	mustPanic("bits too wide", func() { NewPackedCounterTable(1, 8, MaxPackedBits+1) })
	mustPanic("counter index", func() { packed.RowCounter(0, 8) })
}

// --- micro-benchmarks: scalar vs packed hot operations ---

func benchPatterns(length int) []BitVector {
	rng := rand.New(rand.NewSource(7))
	ps := make([]BitVector, 64)
	for i := range ps {
		ps[i] = randomAnchored(rng, length)
	}
	return ps
}

func BenchmarkMergeRowScalar(b *testing.B) {
	t := NewCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.MergeRow(i&63, ps[i&63])
	}
}

func BenchmarkMergeRowPacked(b *testing.B) {
	t := NewPackedCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.MergeRow(i&63, ps[i&63])
	}
}

func BenchmarkHalveRowScalar(b *testing.B) {
	t := NewCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	for i := 0; i < 64; i++ {
		t.MergeRowNoHalve(i, ps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.HalveRow(i & 63)
	}
}

func BenchmarkHalveRowPacked(b *testing.B) {
	t := NewPackedCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	for i := 0; i < 64; i++ {
		t.MergeRowNoHalve(i, ps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.HalveRow(i & 63)
	}
}

func BenchmarkCompareRowScalar(b *testing.B) {
	t := NewCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	for i := 0; i < 256; i++ {
		t.MergeRow(i&63, ps[i&63])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		g1, g2 := t.CompareRow(i&63, 3, 1)
		sink += g1 ^ g2
	}
	benchSink = sink
}

func BenchmarkCompareRowPacked(b *testing.B) {
	t := NewPackedCounterTable(64, 64, 5)
	ps := benchPatterns(64)
	for i := 0; i < 256; i++ {
		t.MergeRow(i&63, ps[i&63])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		g1, g2 := t.CompareRow(i&63, 3, 1)
		sink += g1 ^ g2
	}
	benchSink = sink
}

var benchSink uint64
