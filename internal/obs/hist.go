package obs

import (
	"math/bits"
	"sync"
)

// Histogram buckets: exact counts for values 0..7, then four
// logarithmic sub-buckets per power-of-two octave (HDR-histogram style,
// two significant bits). Relative quantile error is bounded by 1/8;
// storage is one fixed array, so Record never allocates and Reset is a
// memclr. Values are whatever integer unit the caller measures in —
// the core model records virtual-time ticks and queue depths.
const (
	histExact   = 8                      // values below this are exact buckets
	histSubPow  = 2                      // log2 sub-buckets per octave
	histSub     = 1 << histSubPow        // sub-buckets per octave
	histBuckets = histExact + 60*histSub // octaves for msb 3..62 (int64 range)
)

// Histogram is a log-bucketed distribution accumulator for non-negative
// int64 samples. The zero value is ready to use. It is not safe for
// concurrent use; each replication owns its histograms and merges them
// into a HistAccumulator afterwards.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	max    int64
}

// histIndex maps a sample to its bucket.
func histIndex(v int64) int {
	if v < histExact {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> (uint(msb) - histSubPow)) & (histSub - 1))
	return histExact + (msb-3)*histSub + sub
}

// histMid returns the representative (midpoint) value of a bucket.
func histMid(idx int) float64 {
	if idx < histExact {
		return float64(idx)
	}
	m := uint(3 + (idx-histExact)/histSub)
	sub := int64((idx - histExact) % histSub)
	width := int64(1) << (m - histSubPow)
	lo := int64(1)<<m | sub<<(m-histSubPow)
	return float64(lo) + float64(width)/2
}

// Record folds one sample into the distribution. Negative samples are
// clamped to zero (they arise only from unfinished intervals at the
// horizon). Record never allocates.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Mean returns the exact mean of the recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0,1]: exact for samples
// below 8, otherwise the midpoint of the sample's log bucket, clamped
// to the observed maximum. The walk is pure integer arithmetic, so a
// given sample multiset always yields the same answer.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		// The top-rank quantile is the largest sample, which is tracked
		// exactly.
		return float64(h.max)
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histMid(i)
			if v > float64(h.max) {
				return float64(h.max)
			}
			return v
		}
	}
	return float64(h.max)
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the distribution without allocating.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// HistSummary is the manifest-facing digest of one histogram.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary digests the histogram into its manifest form.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}
}

// HistAccumulator merges per-replication histograms into per-cell
// distributions. The zero value is ready to use; Add may be called from
// any number of goroutines (the replication batch workers).
type HistAccumulator struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// Add merges one replication's histogram under the given metric name.
func (a *HistAccumulator) Add(name string, h *Histogram) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[string]*Histogram)
	}
	dst := a.m[name]
	if dst == nil {
		dst = &Histogram{}
		a.m[name] = dst
	}
	dst.Merge(h)
}

// Merge folds every distribution of b into a.
func (a *HistAccumulator) Merge(b *HistAccumulator) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, h := range b.m {
		a.Add(name, h)
	}
}

// Summaries digests the merged distributions, or nil when none were
// added (so the manifest field stays omitted).
func (a *HistAccumulator) Summaries() map[string]HistSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.m) == 0 {
		return nil
	}
	out := make(map[string]HistSummary, len(a.m))
	for name, h := range a.m {
		out[name] = h.Summary()
	}
	return out
}
