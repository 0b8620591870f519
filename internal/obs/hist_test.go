package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 8; v++ {
		h.Record(v)
	}
	if h.count != 8 || h.max != 7 {
		t.Fatalf("count=%d max=%d", h.count, h.max)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %g, want 3 (exact buckets below 8)", got)
	}
	if got := h.Quantile(1); got != 7 {
		t.Errorf("p100 = %g, want 7", got)
	}
	if got := h.Mean(); got != 3.5 {
		t.Errorf("mean = %g, want 3.5", got)
	}
}

// TestHistogramQuantileError checks the log-bucket resolution bound:
// quantile estimates over a wide deterministic sample set stay within
// the 1/8 relative error the two-significant-bit buckets guarantee.
func TestHistogramQuantileError(t *testing.T) {
	var h Histogram
	var samples []int64
	v := int64(1)
	for i := 0; i < 5000; i++ {
		v = (v*2862933555777941757 + 3037000493) & 0xFFFFF // deterministic LCG, values < 2^20
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.95, 0.99} {
		rank := int(q*float64(len(samples))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := float64(samples[rank])
		got := h.Quantile(q)
		if truth > 0 && math.Abs(got-truth)/truth > 0.125 {
			t.Errorf("q=%g: estimate %g vs true %g exceeds 12.5%% relative error", q, got, truth)
		}
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 100)
	}
	a.Merge(&b)
	if a.count != 200 || a.max != 199 {
		t.Fatalf("after merge count=%d max=%d", a.count, a.max)
	}
	if p50 := a.Quantile(0.5); p50 < 80 || p50 > 120 {
		t.Errorf("merged p50 = %g, want near 100", p50)
	}
	a.Reset()
	if a.count != 0 || a.max != 0 || a.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear the distribution")
	}
	// Negative samples (unfinished intervals) clamp to zero.
	a.Record(-5)
	if a.count != 1 || a.max != 0 {
		t.Fatalf("negative sample not clamped: count=%d max=%d", a.count, a.max)
	}
}

func TestHistogramQuantileClampedToMax(t *testing.T) {
	var h Histogram
	h.Record(1000)
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("single-sample p99 = %g, want the observed max 1000", got)
	}
}

// TestHistogramRecordAllocFree pins the hot-path contract: Record (and
// Quantile) never allocate, so histogram rewards can sit behind a nil
// check on the model's dispatch path.
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(200, func() {
		h.Record(123456)
		h.Record(3)
	}); n != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = h.Quantile(0.95) }); n != 0 {
		t.Fatalf("Quantile allocates %v allocs/op, want 0", n)
	}
}

func TestHistSummary(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	s := h.Summary()
	if s.Count != 100 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 || s.P99 > float64(s.Max) {
		t.Fatalf("quantiles not monotone within range: %+v", s)
	}
}

func TestHistAccumulator(t *testing.T) {
	var acc HistAccumulator
	if acc.Summaries() != nil {
		t.Fatal("empty accumulator must summarize to nil")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h Histogram
			for i := int64(0); i < 50; i++ {
				h.Record(i)
			}
			acc.Add("wait", &h)
		}()
	}
	wg.Wait()
	s := acc.Summaries()
	if s["wait"].Count != 200 {
		t.Fatalf("merged count = %d, want 200", s["wait"].Count)
	}
}
