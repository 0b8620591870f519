package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordAgainstNaive(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	wantVar := varSum / float64(len(xs)-1)

	if !almostEqual(w.mean, mean, 1e-12) {
		t.Errorf("mean = %g, want %g", w.mean, mean)
	}
	if !almostEqual(w.Variance(), wantVar, 1e-12) {
		t.Errorf("variance = %g, want %g", w.Variance(), wantVar)
	}
	if w.n != int64(len(xs)) {
		t.Errorf("n = %d, want %d", w.n, len(xs))
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.mean != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("empty accumulator should be all-zero")
	}
	w.Add(7)
	if w.mean != 7 || w.Variance() != 0 {
		t.Errorf("single observation: mean=%g var=%g", w.mean, w.Variance())
	}
	if !math.IsInf(w.CI(0.95).HalfWidth, 1) {
		t.Error("CI of one observation should have infinite half-width")
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 2.5}
	var whole, left, right Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 5 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(right)
	if !almostEqual(left.mean, whole.mean, 1e-12) {
		t.Errorf("merged mean %g, want %g", left.mean, whole.mean)
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance %g, want %g", left.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging an empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.mean != a.mean || b.n != a.n {
		t.Error("merging into empty did not copy")
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Two-sided 95% critical values from standard tables.
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706},
		{2, 4.303},
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{100, 1.984},
	}
	for _, tc := range cases {
		got := TQuantile(0.95, tc.df)
		if !almostEqual(got, tc.want, 0.01) {
			t.Errorf("t(0.95, df=%d) = %.4f, want %.3f", tc.df, got, tc.want)
		}
	}
	// 99% check.
	if got := TQuantile(0.99, 10); !almostEqual(got, 3.169, 0.01) {
		t.Errorf("t(0.99, df=10) = %.4f, want 3.169", got)
	}
	if !math.IsInf(TQuantile(0.95, 0), 1) {
		t.Error("df=0 should give +Inf")
	}
}

func TestTQuantileCachedMatchesFresh(t *testing.T) {
	// TQuantile memoizes per (level, df); every cached value must equal
	// the uncached bisection bit for bit, including repeat lookups.
	for _, level := range []float64{0.90, 0.95, 0.99} {
		for df := 1; df <= 120; df++ {
			fresh := tQuantileFresh(level, df)
			for rep := 0; rep < 2; rep++ {
				if got := TQuantile(level, df); got != fresh {
					t.Fatalf("TQuantile(%g, %d) lookup %d = %v, fresh = %v",
						level, df, rep, got, fresh)
				}
			}
		}
	}
}

func TestTQuantileConcurrent(t *testing.T) {
	// Concurrent experiment cells hit the cache from many goroutines;
	// under -race this verifies the memoization is data-race free.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for df := 1; df <= 60; df++ {
				want := tQuantileFresh(0.95, df)
				if got := TQuantile(0.95, df); got != want {
					t.Errorf("concurrent TQuantile(0.95, %d) = %v, want %v", df, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCIContainsTrueMean(t *testing.T) {
	// Symmetric deviations around 10 give a sample mean of exactly 10,
	// which every confidence interval must contain.
	var w Welford
	x := 0.5
	for i := 0; i < 50; i++ {
		x = math.Mod(x*997.13+3.7, 1)
		w.Add(10 + x)
		w.Add(10 - x)
	}
	iv := w.CI(0.95)
	if iv.Low() > 10 || iv.High() < 10 {
		t.Errorf("CI %v does not contain the true mean 10", iv)
	}
	if iv.Level != 0.95 || iv.N != 100 {
		t.Errorf("interval metadata wrong: %+v", iv)
	}
}

func TestIntervalRelHalfWidth(t *testing.T) {
	if got := (Interval{Mean: 2, HalfWidth: 0.2}).RelHalfWidth(); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("rel half-width = %g, want 0.1", got)
	}
	if got := (Interval{Mean: 0, HalfWidth: 0}).RelHalfWidth(); got != 0 {
		t.Errorf("0/0 rel half-width = %g, want 0", got)
	}
	if got := (Interval{Mean: 0, HalfWidth: 1}).RelHalfWidth(); !math.IsInf(got, 1) {
		t.Errorf("1/0 rel half-width = %g, want +Inf", got)
	}
	if got := (Interval{Mean: -4, HalfWidth: 1}).RelHalfWidth(); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("negative-mean rel half-width = %g, want 0.25", got)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	q, err := Quantile(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q, 2.5, 1e-12) {
		t.Errorf("median = %g, want 2.5", q)
	}
	if q, _ := Quantile(s, 0); q != 1 {
		t.Errorf("q0 = %g, want 1", q)
	}
	if q, _ := Quantile(s, 1); q != 4 {
		t.Errorf("q1 = %g, want 4", q)
	}
	// Input must not be reordered.
	if s[0] != 4 {
		t.Error("Quantile mutated its input")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := Quantile(s, 1.5); err == nil {
		t.Error("q out of range should error")
	}
	if q, err := Quantile([]float64{7}, 0.9); err != nil || q != 7 {
		t.Errorf("single-element quantile = %g, %v", q, err)
	}
}

func TestQuickWelfordMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		min, max := math.Inf(1), math.Inf(-1)
		count := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			count++
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if count == 0 {
			return w.mean == 0
		}
		const eps = 1e-6
		return w.mean >= min-eps && w.mean <= max+eps && w.Variance() >= -eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			var out []float64
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var whole, wa, wb Welford
		for _, x := range a {
			whole.Add(x)
			wa.Add(x)
		}
		for _, x := range b {
			whole.Add(x)
			wb.Add(x)
		}
		wa.Merge(wb)
		if wa.n != whole.n {
			return false
		}
		if whole.n == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(whole.mean))
		return math.Abs(wa.mean-whole.mean) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
