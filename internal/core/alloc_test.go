package core_test

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sched"
)

// TestWorkerAllocsIndependentOfHorizon is the SAN-side twin of fastsim's
// horizon check: once a pooled worker has run a replication, the
// scheduler step (views, Actions, the scheduler's own scratch) allocates
// nothing per tick, so a replication ten times longer costs the same
// number of allocations.
func TestWorkerAllocsIndependentOfHorizon(t *testing.T) {
	for _, name := range []string{"RRS", "SCS", "RCS"} {
		factory, err := sched.Factory(name, sched.Params{Timeslice: 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, pcpus := range []int{1, 2, 4} {
			w, err := core.NewWorker(benchFig8Config(pcpus), factory)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the pooled instance at the longer horizon so one-time
			// growth is off the books for both measurements.
			if _, err := w.Run(2000, 1); err != nil {
				t.Fatal(err)
			}
			allocs := func(horizon float64) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := w.Run(horizon, 1); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(200), allocs(2000)
			if short != long {
				t.Errorf("%s, %d PCPUs: %.1f allocations at horizon 200, %.1f at 2000; want equal", name, pcpus, short, long)
			}
		}
	}
}
