package fixture

import "testing"

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(3, 1) != 3 {
		t.Fatal("Max picks the smaller value")
	}
}
