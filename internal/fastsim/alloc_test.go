package fastsim

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// fig8Config is the paper's Figure 8 system: 3 VMs of 2+1+1 VCPUs running
// Uniform(1,10) workloads with a barrier every 5th job.
func fig8Config(pcpus int) core.SystemConfig {
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return core.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: wl},
			{VCPUs: 1, Workload: wl},
			{VCPUs: 1, Workload: wl},
		},
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRunAllocsIndependentOfHorizon pins the allocation-free tick: a
// replication allocates the engine, the scheduler's one-time state and
// the result map, and nothing per tick, so ten times the horizon costs
// the same number of allocations.
func TestRunAllocsIndependentOfHorizon(t *testing.T) {
	if raceEnabled {
		// The result map's metric names go through fmt, whose printer
		// cache is a sync.Pool; under the race detector a Pool drops
		// items at random, so allocation counts are not exact.
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, name := range []string{"RRS", "SCS", "RCS"} {
		factory, err := sched.Factory(name, sched.Params{Timeslice: 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, pcpus := range []int{1, 2, 4} {
			cfg := fig8Config(pcpus)
			allocs := func(horizon int64) float64 {
				return testing.AllocsPerRun(5, func() {
					e, err := New(cfg, factory(), 1)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.RunInterval(0, horizon); err != nil {
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

// TestEngineFastAllocs pins the allocations of BenchmarkEngineFast's
// replication (Figure 8 on two PCPUs, RRS, 10,000 ticks) at 37: with no
// tick hook attached, observability costs the tick loop one nil test
// and no allocation, and the per-VM spinlock-preemption flags live in
// the VM state rather than in a slice of their own.
func TestEngineFastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	cfg := fig8Config(2)
	factory := func() core.Scheduler { return sched.NewRoundRobin(30) }
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunReplication(cfg, factory, 10000, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 37 {
		t.Errorf("%.1f allocations per replication, want 37", allocs)
	}
}
