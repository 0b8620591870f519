package fastsim

import (
	"fmt"
	"math"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/enginetest"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

func spinWL(load float64, syncN int) workload.Spec {
	return workload.Spec{
		Load:       rng.Deterministic{Value: load},
		SyncEveryN: syncN,
		SyncKind:   workload.SyncSpinlock,
	}
}

// pinSched is a scripted scheduler for spinlock tests.
type pinSched struct {
	fn func(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions)
}

func (p *pinSched) Name() string { return "pin" }

func (p *pinSched) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if p.fn != nil {
		p.fn(now, vcpus, pcpus, acts)
	}
}

// TestSpinlockNoBarrier: spinlock sync points do not stop workload
// generation — with ample PCPUs every VCPU stays busy and the blocked
// fraction stays zero.
func TestSpinlockNoBarrier(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 50,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: spinWL(5, 3)}},
	}
	m, err := RunReplication(cfg, func() core.Scheduler { return sched.NewRoundRobin(50) }, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[core.BlockedFractionMetric] != 0 {
		t.Errorf("blocked fraction = %g under spinlock sync", m[core.BlockedFractionMetric])
	}
	// Nobody is ever descheduled, so no lock holder is ever preempted.
	if m[core.SpinFractionMetric] != 0 {
		t.Errorf("spin fraction = %g with ample PCPUs", m[core.SpinFractionMetric])
	}
	if m[core.VCPUUtilizationAvgMetric] < 0.95 {
		t.Errorf("utilization = %g, want ~1 (generation not blocked)", m[core.VCPUUtilizationAvgMetric])
	}
	if d := m[core.EffectiveUtilizationMetric] - m[core.VCPUUtilizationAvgMetric]; math.Abs(d) > 1e-12 {
		t.Errorf("work != busy without spinning (delta %g)", d)
	}
}

// TestSpinlockHolderPreemptionWastesSiblings: hand-built scenario — the
// lock holder is descheduled while its sibling runs, and the sibling's
// busy time is pure spin.
func TestSpinlockHolderPreemptionWastesSiblings(t *testing.T) {
	// VM with 2 VCPUs, 2 PCPUs. Sync 1:2, loads of 10: at t=0 v0 gets the
	// normal job j1 and v1 gets the lock job j2. Script: at t=5 preempt
	// v1 (the lock holder); at t=40 give it back.
	fn := func(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
		switch now {
		case 0:
			acts.Assign(0, 0, 1000)
			acts.Assign(1, 1, 1000)
		case 5:
			acts.Preempt(1)
		case 40:
			acts.Assign(1, 1, 1000)
		}
	}
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 1000,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: spinWL(10, 2)}},
	}
	eng, err := New(cfg, &pinSched{fn: fn}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	// The lock holder v1 is descheduled over [5,40). During that window
	// v0 is busy but spinning: 35 spin ticks over 2 VCPUs x 100 ticks.
	if got, want := m[core.SpinFractionMetric], 35.0/200; math.Abs(got-want) > 0.01 {
		t.Errorf("spin fraction = %g, want ~%g", got, want)
	}
	if m[core.EffectiveUtilizationMetric] >= m[core.VCPUUtilizationAvgMetric] {
		t.Error("effective utilization not reduced by spinning")
	}
}

// TestSpinlockSerializesLockJobs: a second lock workload is not dispatched
// while one is in flight.
func TestSpinlockSerializesLockJobs(t *testing.T) {
	// Every workload is a lock job (1:1), 2 VCPUs always scheduled: at
	// any instant at most one VCPU may hold an in-flight lock job, so the
	// other is READY-idle: utilization averages 0.5.
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 50,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: spinWL(5, 1)}},
	}
	m, err := RunReplication(cfg, func() core.Scheduler { return sched.NewRoundRobin(50) }, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[core.VCPUUtilizationAvgMetric]; math.Abs(got-0.5) > 0.01 {
		t.Errorf("utilization = %g, want ~0.5 (lock jobs serialized)", got)
	}
}

// TestSpinlockEngineParity extends the cross-validation to spinlock
// workloads.
func TestSpinlockEngineParity(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 20,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: workload.Spec{
				Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 3, SyncKind: workload.SyncSpinlock}},
			{VCPUs: 2, Workload: workload.Spec{
				Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 4, SyncKind: workload.SyncBarrier}},
		},
	}
	d := enginetest.New(t)
	for name, factory := range factories() {
		for seed := uint64(1); seed <= 3; seed++ {
			fast, err := RunReplication(cfg, factory, 2000, seed)
			if err != nil {
				t.Fatalf("%s: fast: %v", name, err)
			}
			san, err := core.RunReplication(cfg, factory, 2000, seed)
			if err != nil {
				t.Fatalf("%s: san: %v", name, err)
			}
			d.Compare(fmt.Sprintf("%s seed %d", name, seed), fast, san)
		}
	}
}

// TestSpinlockCoSchedulingAdvantage: the headline of the extension —
// under lock-heavy workloads on a topology whose gangs RRS's rotation
// waves split (two 3-VCPU VMs on four PCPUs), Round-Robin regularly
// strands lock holders and its scheduled siblings burn their PCPUs
// spinning, while SCS co-runs siblings and never spins at all: every SCS
// busy tick is productive, while a measurable share of RRS busy ticks is
// spin waste (physical CPU burned without guest progress).
func TestSpinlockCoSchedulingAdvantage(t *testing.T) {
	wl := workload.Spec{
		Load:       rng.Uniform{Low: 1, High: 10},
		SyncEveryN: 2,
		SyncKind:   workload.SyncSpinlock,
	}
	cfg := core.SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 3, Workload: wl},
			{VCPUs: 3, Workload: wl},
		},
	}
	run := func(f core.SchedulerFactory) (workPerBusy, spin float64) {
		var wSum, sSum float64
		for seed := uint64(1); seed <= 5; seed++ {
			m, err := RunReplication(cfg, f, 10000, seed)
			if err != nil {
				t.Fatal(err)
			}
			wSum += m[core.EffectiveUtilizationMetric] / m[core.VCPUUtilizationAvgMetric]
			sSum += m[core.SpinFractionMetric]
		}
		return wSum / 5, sSum / 5
	}
	rrsWork, rrsSpin := run(func() core.Scheduler { return sched.NewRoundRobin(30) })
	scsWork, scsSpin := run(func() core.Scheduler { return sched.NewStrictCo(30) })
	if scsSpin != 0 {
		t.Errorf("SCS spin fraction = %g, want 0 (siblings always co-scheduled)", scsSpin)
	}
	if scsWork != 1 {
		t.Errorf("SCS productive share of busy time = %g, want exactly 1", scsWork)
	}
	if rrsSpin <= 0.01 {
		t.Errorf("RRS spin fraction = %g, expected substantial lock-holder preemption", rrsSpin)
	}
	if rrsWork >= 0.99 {
		t.Errorf("RRS productive share of busy time = %g, expected visible spin waste", rrsWork)
	}
}
