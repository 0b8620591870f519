package sched

import (
	"testing"

	"vcpusim/internal/core"
)

// TestScheduleAllocFree pins the allocation-free scheduling tick: once a
// scheduler has derived its topology and sized its scratch, Schedule with
// a reused Actions allocates nothing, and neither does SkipTicks (RRS,
// SCS and RCS), on a state that evolves every call (timeslice expiries
// flip statuses, RCS enters and leaves co-mode, the Credit refill fires).
func TestScheduleAllocFree(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			// Short timeslices expire every few ticks; RCS thresholds
			// low enough to cross both ways. VM 0 is the gang Hybrid
			// co-schedules.
			f, err := Factory(name, Params{Timeslice: 6, EnterSkew: 4, ExitSkew: 2, ConcurrentVMs: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			s := f()
			// Figure 8's one-PCPU system: the 2-VCPU VM accrues skew
			// under RCS, so co-mode is entered and left repeatedly.
			h := newHarness(t, s, 1, 2, 1, 1)
			h.run(200) // warm-up: topology, scratch and queues settle
			rcs, _ := s.(*RelaxedCo)
			transitions, wasCo := 0, false
			observe := func() {
				if rcs != nil && rcs.coMode[0] != wasCo {
					wasCo = !wasCo
					transitions++
				}
			}
			var skipped int64
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 50; i++ {
					h.tick()
					observe()
					skipped += h.skip()
					observe()
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocations per 50 ticks and skips, want 0", name, allocs)
			}
			if _, ok := s.(core.TickSkipper); ok && skipped == 0 {
				t.Errorf("%s: SkipTicks never skipped a tick", name)
			}
			if rcs != nil && transitions < 2 {
				t.Errorf("RCS co-mode changed %d times in the measured ticks, want it entered and left", transitions)
			}
		})
	}
}
