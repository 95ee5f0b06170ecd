package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrLinePage(t *testing.T) {
	a := Addr(0x12345)
	if got := a.Line(); got != 0x12340 {
		t.Errorf("Line() = %#x, want 0x12340", uint64(got))
	}
	if got := a.Page(); got != 0x12000 {
		t.Errorf("Page() = %#x, want 0x12000", uint64(got))
	}
	if got := a.LineID(); got != 0x12345>>6 {
		t.Errorf("LineID() = %#x", got)
	}
	if got := a.PageID(); got != 0x12 {
		t.Errorf("PageID() = %#x, want 0x12", got)
	}
	if got := a.PageOffset(); got != (0x345 >> 6) {
		t.Errorf("PageOffset() = %d, want %d", got, 0x345>>6)
	}
}

func TestNewRegionValid(t *testing.T) {
	for _, size := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		r := NewRegion(size)
		if r.Bytes() != size {
			t.Errorf("Bytes() = %d, want %d", r.Bytes(), size)
		}
		if r.Lines() != size/LineBytes {
			t.Errorf("Lines() = %d, want %d", r.Lines(), size/LineBytes)
		}
	}
}

func TestNewRegionInvalid(t *testing.T) {
	for _, size := range []int{0, 32, 63, 100, 8192, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRegion(%d) did not panic", size)
				}
			}()
			NewRegion(size)
		}()
	}
}

func TestRegionOffsetAndBase(t *testing.T) {
	r := NewRegion(4096)
	a := Addr(0x7fff_1234_5678)
	if got, want := r.Offset(a), a.PageOffset(); got != want {
		t.Errorf("Offset = %d, want %d", got, want)
	}
	if got, want := r.Base(a), a.Page(); got != want {
		t.Errorf("Base = %#x, want %#x", uint64(got), uint64(want))
	}

	r2 := NewRegion(1024) // 16 lines
	a2 := Addr(1024*5 + 64*3 + 17)
	if got := r2.Offset(a2); got != 3 {
		t.Errorf("Offset = %d, want 3", got)
	}
	if got := r2.ID(a2); got != 5 {
		t.Errorf("ID = %d, want 5", got)
	}
}

// Property: LineAddr is a right inverse of (ID, Offset) for any address.
func TestRegionRoundTrip(t *testing.T) {
	for _, size := range []int{1024, 2048, 4096} {
		r := NewRegion(size)
		f := func(raw uint64) bool {
			a := Addr(raw).Line()
			back := r.LineAddr(r.ID(a), r.Offset(a))
			return back == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("region %d: %v", size, err)
		}
	}
}

func TestCeilLog2AndPow2(t *testing.T) {
	for _, tc := range []struct{ n, floor, log2, pow2 int }{
		{-3, 0, 0, 1},
		{0, 0, 0, 1},
		{1, 0, 0, 1},
		{2, 0, 1, 2},
		{3, 0, 2, 4},
		{4, 0, 2, 4},
		{5, 0, 3, 8},
		{64, 0, 6, 64},
		{65, 0, 7, 128},
		{1000, 16, 10, 1024},
		{4096, 64, 12, 4096},
		{10, 64, 4, 64},
		{100, 64, 7, 128},
	} {
		if got := CeilLog2(tc.n); got != tc.log2 {
			t.Errorf("CeilLog2(%d) = %d, want %d", tc.n, got, tc.log2)
		}
		if got := CeilPow2(tc.n, tc.floor); got != tc.pow2 {
			t.Errorf("CeilPow2(%d, %d) = %d, want %d", tc.n, tc.floor, got, tc.pow2)
		}
	}
}
