package stats

import "testing"

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 97))
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TQuantile(0.95, 20)
	}
}

func BenchmarkTQuantileUncached(b *testing.B) {
	// The bisection TQuantile runs once per distinct (level, df) and then
	// serves from cache; this is the cost every stopping check used to pay.
	for i := 0; i < b.N; i++ {
		_ = tQuantileFresh(0.95, 20)
	}
}
