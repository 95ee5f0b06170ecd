package mem

import "testing"

func TestSatInc(t *testing.T) {
	if got := SatInc(uint8(2), 3); got != 3 {
		t.Errorf("SatInc(2, 3) = %d, want 3", got)
	}
	if got := SatInc(uint8(3), 3); got != 3 {
		t.Errorf("SatInc(3, 3) = %d, want 3 (clamped)", got)
	}
	if got := SatInc(uint8(255), 255); got != 255 {
		t.Errorf("SatInc(255, 255) = %d, want 255 (no wrap)", got)
	}
}

func TestSatDec(t *testing.T) {
	if got := SatDec(uint8(1), 0); got != 0 {
		t.Errorf("SatDec(1, 0) = %d, want 0", got)
	}
	if got := SatDec(uint8(0), 0); got != 0 {
		t.Errorf("SatDec(0, 0) = %d, want 0 (no wrap)", got)
	}
	if got := SatDec(int8(-4), -4); got != -4 {
		t.Errorf("SatDec(-4, -4) = %d, want -4 (clamped)", got)
	}
}

func TestSatAdd(t *testing.T) {
	cases := []struct {
		v, d, min, max, want int8
	}{
		{10, 5, -16, 15, 15},      // clamps high
		{-10, -20, -16, 15, -16},  // clamps low
		{3, 4, -16, 15, 7},        // in range
		{120, 10, -128, 127, 127}, // would overflow int8
		{-120, -10, -128, 127, -128},
	}
	for _, c := range cases {
		if got := SatAdd(c.v, c.d, c.min, c.max); got != c.want {
			t.Errorf("SatAdd(%d, %d, %d, %d) = %d, want %d", c.v, c.d, c.min, c.max, got, c.want)
		}
	}
}
