package stats

import (
	"fmt"
	"sort"
)

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

// MeanAt returns the time average of the signal over [start, t].
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started || t <= tw.start {
		return 0
	}
	integral := tw.integral + tw.lastV*(t-tw.lastT)
	return integral / (t - tw.start)
}

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
