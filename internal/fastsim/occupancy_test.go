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

// refCounts is per-tick occupancy sampling: each sampled tick reads every
// VCPU, PCPU and VM and adds one tick to the counter of the state it is
// in. The engine credits occupancy on transitions instead; this is the
// reference its counters must equal.
type refCounts counters

func newRefCounts(e *Engine) *refCounts {
	return &refCounts{
		active: make([]int64, len(e.vcpus)),
		busy:   make([]int64, len(e.vcpus)),
		pcpu:   make([]int64, len(e.pcpus)),
	}
}

// sample accumulates one tick of state occupancy (ticks before the warmup
// point are discarded).
func (r *refCounts) sample(e *Engine) {
	if e.now < e.warmup {
		return
	}
	for id := range e.vcpus {
		switch e.vcpus[id].Status {
		case core.Busy:
			r.busy[id]++
			r.active[id]++
			if e.spinning(id) {
				r.spin++
			} else {
				r.work++
			}
		case core.Ready:
			r.active[id]++
		}
	}
	for p := range e.pcpus {
		if e.pcpus[p].VCPU >= 0 {
			r.pcpu[p]++
		}
	}
	for vi := range e.vms {
		if e.vms[vi].blocked {
			r.blocked++
		}
	}
	r.sampled++
}

func (r *refCounts) snapshot() counters {
	c := counters(*r)
	c.active = append([]int64(nil), r.active...)
	c.busy = append([]int64(nil), r.busy...)
	c.pcpu = append([]int64(nil), r.pcpu...)
	return c
}

// driveRef runs RunInterval's tick loop on e, step for step, with the
// reference sampler beside sample. At every window boundary it settles
// the engine and requires its counters to equal the reference's. It
// returns the reference counters at the start and at each boundary.
func driveRef(t *testing.T, e *Engine, warmup, horizon, window int64) []counters {
	t.Helper()
	e.warmup = warmup
	ref := newRefCounts(e)
	snaps := []counters{ref.snapshot()}
	endTick := func() {
		e.sample()
		ref.sample(e)
		if e.sampled == 0 || e.sampled%window != 0 {
			return
		}
		e.settle()
		got, want := e.snapshot(), ref.snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window=%d, tick %d: credited counters %+v, per-tick sampling %+v", window, e.now, got, want)
		}
		snaps = append(snaps, want)
	}
	if err := e.hypervisorStep(); err != nil {
		t.Fatal(err)
	}
	e.jobFlow()
	endTick()
	e.now++
	for ; e.now < horizon; e.now++ {
		e.process()
		e.jobFlow()
		if err := e.hypervisorStep(); err != nil {
			t.Fatal(err)
		}
		e.jobFlow()
		endTick()
	}
	return snaps
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
// window boundary: inside the engine's own loop, through RunWindowed's
// window metrics and through RunInterval's results. A window as long as
// the measured span settles only at the end, so a transition that skips
// its credit shows there.
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
						ref := newEngine()
						snaps := driveRef(t, ref, warmup, horizon, window)
						if got := int64(len(snaps) - 1); got != span/window {
							t.Fatalf("window=%d: %d boundaries, want %d", window, got, span/window)
						}

						windows, err := newEngine().RunWindowed(warmup, horizon, window)
						if err != nil {
							t.Fatal(err)
						}
						if len(windows) != len(snaps)-1 {
							t.Fatalf("window=%d: RunWindowed returned %d windows, want %d", window, len(windows), len(snaps)-1)
						}
						for k, got := range windows {
							if want := ref.windowMetrics(snaps[k], snaps[k+1]); !reflect.DeepEqual(got, want) {
								t.Fatalf("window=%d, window %d: RunWindowed %v, per-tick sampling %v", window, k, got, want)
							}
						}

						if window != span {
							continue
						}
						last := snaps[len(snaps)-1]
						blocked += last.blocked
						spin += last.spin
						got, err := newEngine().RunInterval(warmup, horizon)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.results(); !reflect.DeepEqual(got, want) {
							t.Fatalf("RunInterval %v, per-tick sampling %v", got, want)
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
