package core_test

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestFreshSetupAllocs pins the allocations of a fresh Figure 8
// replication set-up: build, compile, instance and reset, the path
// BenchmarkReplicationSetupFresh times. Counted arcs are recorded as data,
// so the model's InputArc/OutputArc calls allocate no closure. The set-up
// takes 524 allocations; the bound leaves room for small unrelated growth,
// not for a closure per arc step and per input-arc test (31 in this
// model: 18 arcs, 13 of them input arcs).
func TestFreshSetupAllocs(t *testing.T) {
	if raceEnabled {
		// Metric names go through fmt, whose printer cache is a
		// sync.Pool; under the race detector a Pool drops items at
		// random, so allocation counts are not exact.
		t.Skip("allocation counts are not exact under the race detector")
	}
	const budget = 539
	cfg := benchFig8Config(2)
	allocs := testing.AllocsPerRun(5, func() {
		src := rng.New(1)
		sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := san.Compile(sys.Model())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := prog.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		inst.Reset(src.Uint64())
	})
	if allocs > budget {
		t.Errorf("fresh Figure 8 set-up: %.0f allocations, want at most %d", allocs, budget)
	}
}

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
