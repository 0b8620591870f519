// Package stats provides the statistics substrate for the simulator:
// streaming mean/variance accumulators (Welford), time-weighted state
// accumulators for rate rewards, Student-t confidence intervals for the
// replication runner.
package stats

import (
	"fmt"
	"math"
	"sync"
)

// Welford accumulates a sample mean and variance in a single streaming pass
// using Welford's algorithm. The zero value is an empty accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean      float64
	HalfWidth float64
	Level     float64 // e.g. 0.95
	N         int64   // observations behind the interval
}

// Low returns the interval's lower bound.
func (iv Interval) Low() float64 { return iv.Mean - iv.HalfWidth }

// High returns the interval's upper bound.
func (iv Interval) High() float64 { return iv.Mean + iv.HalfWidth }

// RelHalfWidth returns HalfWidth/|Mean|, or +Inf when the mean is zero and
// the half-width is not. The paper stops replications when this drops
// below 0.1.
func (iv Interval) RelHalfWidth() float64 {
	if iv.Mean == 0 {
		if iv.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iv.HalfWidth / math.Abs(iv.Mean)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f (%.0f%%, n=%d)", iv.Mean, iv.HalfWidth, iv.Level*100, iv.N)
}

// CI returns the confidence interval at the given level (e.g. 0.95) from the
// accumulated observations, using the Student-t distribution. With fewer
// than two observations the half-width is +Inf.
func (w *Welford) CI(level float64) Interval {
	iv := Interval{Mean: w.mean, Level: level, N: w.n}
	if w.n < 2 {
		iv.HalfWidth = math.Inf(1)
		return iv
	}
	t := TQuantile(level, int(w.n-1))
	iv.HalfWidth = t * w.StdErr()
	return iv
}

// tQuantileKey identifies one memoized critical value.
type tQuantileKey struct {
	level float64
	df    int
}

// tQuantileCache memoizes TQuantile per (level, df). An experiment calls
// TQuantile on every stopping check for every metric, but only ever with
// a handful of levels and a df that grows with the replication count, so
// the hit rate is near 1 after the first few batches. sync.Map fits the
// access pattern (write once, read many, from concurrent experiment
// cells).
var tQuantileCache sync.Map

// TQuantile returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom: the value t such that
// P(-t < T_df < t) = level. Results are memoized per (level, df); the
// bisection below runs once per distinct input.
func TQuantile(level float64, df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	key := tQuantileKey{level: level, df: df}
	if v, ok := tQuantileCache.Load(key); ok {
		return v.(float64)
	}
	t := tQuantileFresh(level, df)
	tQuantileCache.Store(key, t)
	return t
}

// tQuantileFresh computes the critical value by bisection, uncached.
func tQuantileFresh(level float64, df int) float64 {
	// Two-sided: we need the (1+level)/2 quantile.
	p := (1 + level) / 2
	// Invert the t CDF by bisection on [0, hi]. The CDF is monotone; 2000
	// comfortably exceeds any critical value for p < 0.9999 and df >= 1.
	lo, hi := 0.0, 2000.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, float64(df)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF is the CDF of the Student-t distribution with df degrees of freedom,
// computed via the regularized incomplete beta function.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	ib := regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x > (a+1)/(a+b+2) {
		// Use the symmetry relation for faster convergence.
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Lentz's algorithm for the continued fraction.
	const eps = 1e-14
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -((a + float64(m)) * (a + b + float64(m)) * x) / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		cd := c * d
		f *= cd
		if math.Abs(1-cd) < eps {
			break
		}
	}
	return front * (f - 1)
}

// lgamma wraps math.Lgamma, dropping the sign (arguments here are positive).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
