// Package stats provides the statistics substrate for the simulator:
// streaming mean/variance accumulators (Welford), time-weighted state
// accumulators for rate rewards, Student-t confidence intervals for the
// replication runner, and simple histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

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

// Merge folds another accumulator into w (parallel Welford combination).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
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

// TimeWeighted accumulates the time integral of a piecewise-constant signal,
// the basis of SAN rate rewards: the mean over [start, now] is the
// time-averaged value of the signal.
type TimeWeighted struct {
	start    float64
	lastT    float64
	lastV    float64
	integral float64
	started  bool
}

// Start begins accumulation at time t with initial value v. It resets any
// prior state.
func (tw *TimeWeighted) Start(t, v float64) {
	*tw = TimeWeighted{start: t, lastT: t, lastV: v, started: true}
}

// Observe records that the signal changed to v at time t. Time must be
// non-decreasing. The running case is branch-plus-arithmetic; first
// observation and the time-regression panic live in the cold helper.
// Observe does not inline: its cost (89 in go build -gcflags=-m=2) is
// over the compiler's budget of 80.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started || t < tw.lastT {
		tw.observeSlow(t, v)
		return
	}
	tw.integral += tw.lastV * (t - tw.lastT)
	tw.lastT = t
	tw.lastV = v
}

//go:noinline
func (tw *TimeWeighted) observeSlow(t, v float64) {
	if !tw.started {
		tw.Start(t, v)
		return
	}
	panic(fmt.Sprintf("stats: TimeWeighted time went backwards: %g < %g", t, tw.lastT))
}

// MeanAt returns the time average of the signal over [start, t].
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started || t <= tw.start {
		return 0
	}
	integral := tw.integral + tw.lastV*(t-tw.lastT)
	return integral / (t - tw.start)
}

// IntegralAt returns the time integral of the signal over [start, t].
func (tw *TimeWeighted) IntegralAt(t float64) float64 {
	if !tw.started {
		return 0
	}
	return tw.integral + tw.lastV*(t-tw.lastT)
}

// Histogram is a fixed-bin histogram over [Low, High); values outside the
// range land in under/overflow counters.
type Histogram struct {
	low, high float64
	width     float64
	counts    []int64
	under     int64
	over      int64
	total     int64
}

// NewHistogram creates a histogram with bins equal-width bins over
// [low, high). It returns an error for invalid ranges or bin counts.
func NewHistogram(low, high float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin count, got %d", bins)
	}
	if !(low < high) {
		return nil, fmt.Errorf("stats: histogram range invalid: [%g, %g)", low, high)
	}
	return &Histogram{
		low:    low,
		high:   high,
		width:  (high - low) / float64(bins),
		counts: make([]int64, bins),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.low:
		h.under++
	case x >= h.high:
		h.over++
	default:
		i := int((x - h.low) / h.width)
		if i >= len(h.counts) { // guard against floating-point edge
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// Total returns the number of observations, including out-of-range ones.
func (h *Histogram) Total() int64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.counts[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Underflow returns the count of observations below the range.
func (h *Histogram) Underflow() int64 { return h.under }

// Overflow returns the count of observations at or above the range.
func (h *Histogram) Overflow() int64 { return h.over }

// Quantile returns the q-quantile (0 <= q <= 1) of the given sample using
// linear interpolation. It returns an error for an empty sample or q out of
// range. The input slice is not modified.
func Quantile(sample []float64, q float64) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1], nil
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac, nil
}
