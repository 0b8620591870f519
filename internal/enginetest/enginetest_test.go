package enginetest

import (
	"math"
	"testing"
)

func TestULPs(t *testing.T) {
	one := 1.0
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		a, b float64
		want uint64
	}{
		{one, one, 0},
		{0, math.Copysign(0, -1), 0},
		{one, math.Nextafter(one, 2), 1},
		{math.Nextafter(one, 2), one, 1},
		{-one, math.Nextafter(-one, -2), 1},
		{tiny, -tiny, 2},
		{0.5, 0.5 + 170*math.Pow(2, -53), 170},
		{math.NaN(), one, math.MaxUint64},
	} {
		if got := ulps(c.a, c.b); got != c.want {
			t.Errorf("ulps(%g, %g) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
