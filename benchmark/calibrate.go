package main

import (
	"time"

	"vcpusim/internal/obs"
)

// calibrationSteps is the kernel length that takes nominalCalibration on
// the machine every reported time is normalized to.
const (
	calibrationSteps   = 1500000
	nominalCalibration = 150 * time.Millisecond
)

// calibrate runs a fixed kernel of the given length (a share of
// calibrationSteps) and returns its wall time scaled to the full length.
// The hosts this benchmark runs on change speed by up to 2x over minutes,
// and a pass slows with its host: in a 15-minute recording of every
// workload's passes between calibrations, pass time and the calibrations
// around it moved together (correlation 0.90 to 0.93), so dividing one by
// the other cancels the host's speed of the moment and leaves the
// simulator's. Of the kernels tried, this cache-resident one tracked every
// workload best; one walking a 32 MiB table tracked worse (0.67 to 0.91).
// The kernel is the benchmark's own code — a small discrete-event loop
// with heap, map and slice churn — so no change to the simulator moves it.
func calibrate(steps int) time.Duration {
	start := obs.Clock()
	calibrationSink = kernel(steps)
	return (obs.Clock() - start) * calibrationSteps / time.Duration(steps)
}

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64

func kernel(steps int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	type event struct {
		t  float64
		id int32
	}
	h := make([]event, 0, 64)
	less := func(i, j int) bool { return h[i].t < h[j].t }
	push := func(e event) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(i, p) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() event {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			m, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && less(l, m) {
				m = l
			}
			if r < len(h) && less(r, m) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for id := int32(0); id < 64; id++ {
		push(event{float64(next()>>11) / (1 << 53), id})
	}
	buckets := make(map[int32][]float64, 64)
	var sum uint64
	for n := 0; n < steps; n++ {
		e := pop()
		t := e.t + float64(next()>>11)/(1<<53)
		push(event{t, e.id})
		b := append(buckets[e.id], t)
		if len(b) > 32 {
			b = nil
		}
		buckets[e.id] = b
		sum += uint64(t)
	}
	return sum
}
