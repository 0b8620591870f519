package fastsim

import (
	"fmt"
	"reflect"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// spinningRef reports, from e's state alone, whether VCPU id burns its
// PCPU on a preempted spinlock: it is BUSY without in-flight sync load in
// a spinlock VM whose in-flight lock holder is descheduled.
func spinningRef(e *Engine, id int) bool {
	v := &e.vcpus[id]
	if e.vms[v.VM].syncKind != workload.SyncSpinlock || v.Status != core.Busy {
		return false
	}
	if v.SyncPoint && v.RemainingLoad > 0 {
		return false
	}
	return e.lockHolderPreempted(v.VM)
}

// sampleRef is per-tick occupancy sampling: it reads every VCPU, PCPU and
// VM of e at the end of tick and adds one tick to the accumulator of ref
// for the state each is in (ticks before the warmup point are discarded).
// The engine credits occupancy on transitions instead; the reference's
// accumulators are what its own must equal at every window boundary.
func sampleRef(ref, e *Engine, tick int64) {
	if tick < e.warmup {
		return
	}
	for id := range e.vcpus {
		switch e.vcpus[id].Status {
		case core.Busy:
			ref.busyTicks[id]++
			ref.activeTicks[id]++
			if spinningRef(e, id) {
				ref.spinTicks++
			}
		case core.Ready:
			ref.activeTicks[id]++
		}
	}
	for p := range e.pcpus {
		if e.pcpus[p].VCPU >= 0 {
			ref.pcpuTicks[p]++
		}
	}
	for vi := range e.vms {
		if e.vms[vi].blocked {
			ref.blockedTicks++
		}
	}
}

// namedConfig is a system under test and its subtest name.
type namedConfig struct {
	name string
	cfg  core.SystemConfig
}

// occupancyConfigs are oversubscribed systems that between them block at
// barriers, spin on preempted lock holders and run unsynchronized jobs,
// with a timeslice short enough that every kind of transition is frequent.
func occupancyConfigs() []namedConfig {
	wl := func(high float64, syncN int, kind workload.SyncKind) workload.Spec {
		return workload.Spec{Load: rng.Uniform{Low: 1, High: high}, SyncEveryN: syncN, SyncKind: kind}
	}
	fig8 := fig8Config(1)
	fig8.Timeslice = 5
	return []namedConfig{
		{"fig8", fig8},
		{"mixed", core.SystemConfig{PCPUs: 2, Timeslice: 5, VMs: []core.VMConfig{
			{VCPUs: 2, Workload: wl(8, 3, workload.SyncBarrier)},
			{VCPUs: 3, Workload: wl(6, 2, workload.SyncSpinlock)},
			{VCPUs: 1, Workload: wl(10, 0, workload.SyncBarrier)},
		}}},
		{"spinlock", core.SystemConfig{PCPUs: 3, Timeslice: 5, VMs: []core.VMConfig{
			{VCPUs: 2, Workload: wl(5, 2, workload.SyncSpinlock)},
			{VCPUs: 2, Workload: wl(9, 3, workload.SyncSpinlock)},
		}}},
	}
}

// TestCreditedOccupancyMatchesPerTickSampling runs every scheduler on
// barrier and spinlock systems, at several warmups, and requires the
// occupancy credited on transitions to equal per-tick sampling at every
// window boundary: inside the engine's own tick loop, driven one tick at a
// time with the reference sampling beside it, through RunWindowed's window
// metrics and through RunInterval's results. A window as long as the
// measured span settles only at the end, so a transition that skips its
// credit shows there.
func TestCreditedOccupancyMatchesPerTickSampling(t *testing.T) {
	const span = 630
	var blocked, spin int64
	for _, name := range sched.Names() {
		factory, err := sched.Factory(name, sched.Params{Timeslice: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range occupancyConfigs() {
			for _, warmup := range []int64{0, 1, 100, 999} {
				t.Run(fmt.Sprintf("%s/%s/warmup=%d", name, c.name, warmup), func(t *testing.T) {
					newEngine := func() *Engine {
						e, err := New(c.cfg, factory(), 11)
						if err != nil {
							t.Fatal(err)
						}
						return e
					}
					horizon := warmup + span
					for _, window := range []int64{span, 90, 7, 1} {
						// e runs its tick loop one tick at a time; ref holds
						// the per-tick samples of the current window.
						e, ref := newEngine(), newEngine()
						var settled, sampled []map[string]float64
						var interval map[string]float64
						emit := func() { settled = append(settled, e.metrics(window, false)) }
						for tick := int64(0); tick < horizon; tick++ {
							if err := e.run(warmup, tick+1, window, emit); err != nil {
								t.Fatal(err)
							}
							sampleRef(ref, e, tick)
							if tick >= warmup && (tick+1-warmup)%window == 0 {
								sampled = append(sampled, ref.metrics(window, false))
								if window == span {
									for vi := range e.vms {
										ref.vms[vi].jobs, ref.vms[vi].unblocks = e.vms[vi].jobs, e.vms[vi].unblocks
									}
									interval = ref.metrics(span, true)
									blocked += ref.blockedTicks
									spin += ref.spinTicks
								}
								ref = newEngine()
							}
							if len(settled) != len(sampled) {
								t.Fatalf("window=%d, tick %d: the engine settled %d windows, the reference sampled %d", window, tick, len(settled), len(sampled))
							}
							if k := len(settled) - 1; k >= 0 && !reflect.DeepEqual(settled[k], sampled[k]) {
								t.Fatalf("window=%d, tick %d: credited occupancy %v, per-tick sampling %v", window, tick, settled[k], sampled[k])
							}
						}
						if got := int64(len(sampled)); got != span/window {
							t.Fatalf("window=%d: %d boundaries, want %d", window, got, span/window)
						}

						windows, err := newEngine().RunWindowed(warmup, horizon, window)
						if err != nil {
							t.Fatal(err)
						}
						if len(windows) != len(sampled) {
							t.Fatalf("window=%d: RunWindowed returned %d windows, want %d", window, len(windows), len(sampled))
						}
						for k, got := range windows {
							if want := sampled[k]; !reflect.DeepEqual(got, want) {
								t.Fatalf("window=%d, window %d: RunWindowed %v, per-tick sampling %v", window, k, got, want)
							}
						}

						if window != span {
							continue
						}
						got, err := newEngine().RunInterval(warmup, horizon)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, interval) {
							t.Fatalf("RunInterval %v, per-tick sampling %v", got, interval)
						}
					}
				})
			}
		}
	}
	if blocked == 0 || spin == 0 {
		t.Fatalf("blocked ticks %d, spin ticks %d: the systems never blocked or never spun", blocked, spin)
	}
}
