package fastsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/enginetest"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

func detWL(load float64, syncN int) workload.Spec {
	return workload.Spec{Load: rng.Deterministic{Value: load}, SyncEveryN: syncN}
}

func uniWL(syncN int) workload.Spec {
	return workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: syncN}
}

func TestNewValidation(t *testing.T) {
	good := core.SystemConfig{PCPUs: 1, Timeslice: 10, VMs: []core.VMConfig{{VCPUs: 1, Workload: uniWL(5)}}}
	if _, err := New(core.SystemConfig{}, sched.NewRoundRobin(10), 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(good, nil, 1); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := RunReplication(good, nil, 100, 1); err == nil {
		t.Error("nil factory accepted")
	}
	eng, err := New(good, sched.NewRoundRobin(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestSaturatedSingleVCPU(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     1,
		Timeslice: 5,
		VMs:       []core.VMConfig{{VCPUs: 1, Workload: detWL(3, 0)}},
	}
	m, err := RunReplication(cfg, func() core.Scheduler { return sched.NewRoundRobin(5) }, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		core.AvailabilityMetric(0, 0),
		core.VCPUUtilizationMetric(0, 0),
		core.PCPUUtilizationMetric(0),
	} {
		if m[name] != 1 {
			t.Errorf("%s = %g, want 1", name, m[name])
		}
	}
}

func TestMetricsWithinUnitInterval(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     3,
		Timeslice: 20,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: uniWL(3)},
			{VCPUs: 2, Workload: uniWL(2)},
		},
	}
	for _, factory := range []core.SchedulerFactory{
		func() core.Scheduler { return sched.NewRoundRobin(20) },
		func() core.Scheduler { return sched.NewStrictCo(20) },
		func() core.Scheduler { return sched.NewRelaxedCo(sched.RelaxedCoParams{Timeslice: 20}) },
		func() core.Scheduler { return sched.NewBalance(20) },
		func() core.Scheduler { return sched.NewCredit(sched.CreditParams{Timeslice: 20}) },
	} {
		m, err := RunReplication(cfg, factory, 3000, 17)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range m {
			if strings.HasPrefix(name, "jobs/") || strings.HasPrefix(name, "unblocks/") {
				if v < 0 {
					t.Errorf("count metric %s = %g negative", name, v)
				}
				continue
			}
			if v < 0 || v > 1 {
				t.Errorf("metric %s = %g out of [0,1]", name, v)
			}
		}
		// Busy VCPU ticks cannot exceed assigned PCPU ticks.
		busy := m[core.VCPUUtilizationAvgMetric] * 4
		used := m[core.PCPUUtilizationAvgMetric] * 3
		if busy > used+1e-9 {
			t.Errorf("busy vcpu-time %g exceeds assigned pcpu-time %g", busy, used)
		}
		// Availability bounds utilization per VCPU.
		for vm := 0; vm < 2; vm++ {
			for s := 0; s < 2; s++ {
				a := m[core.AvailabilityMetric(vm, s)]
				u := m[core.VCPUUtilizationMetric(vm, s)]
				if u > a+1e-9 {
					t.Errorf("vm%d vcpu%d utilization %g exceeds availability %g", vm, s, u, a)
				}
			}
		}
	}
}

// TestEngineCrossValidation is the fidelity check: the SAN engine and the
// direct engine, sharing only the documented tick semantics, must produce
// bit-identical per-entity metrics, and fleet averages within enginetest's
// ulp bound, for identical seeds across algorithms and topologies.
func TestEngineCrossValidation(t *testing.T) {
	configs := []core.SystemConfig{
		{PCPUs: 1, Timeslice: 30, VMs: []core.VMConfig{
			{VCPUs: 2, Workload: uniWL(5)}, {VCPUs: 1, Workload: uniWL(5)}, {VCPUs: 1, Workload: uniWL(5)}}},
		{PCPUs: 4, Timeslice: 30, VMs: []core.VMConfig{
			{VCPUs: 2, Workload: uniWL(5)}, {VCPUs: 3, Workload: uniWL(2)}}},
		{PCPUs: 2, Timeslice: 7, VMs: []core.VMConfig{
			{VCPUs: 2, Workload: detWL(4, 1)}, {VCPUs: 2, Workload: uniWL(0)}}},
	}
	factories := map[string]core.SchedulerFactory{
		"RRS":     func() core.Scheduler { return sched.NewRoundRobin(30) },
		"SCS":     func() core.Scheduler { return sched.NewStrictCo(30) },
		"RCS":     func() core.Scheduler { return sched.NewRelaxedCo(sched.RelaxedCoParams{Timeslice: 30}) },
		"Balance": func() core.Scheduler { return sched.NewBalance(30) },
		"Credit":  func() core.Scheduler { return sched.NewCredit(sched.CreditParams{Timeslice: 30}) },
	}
	const horizon = 3000
	d := enginetest.New(t)
	for name, factory := range factories {
		for ci, cfg := range configs {
			for seed := uint64(1); seed <= 3; seed++ {
				fast, err := RunReplication(cfg, factory, horizon, seed)
				if err != nil {
					t.Fatalf("%s config %d seed %d: fast: %v", name, ci, seed, err)
				}
				san, err := core.RunReplication(cfg, factory, horizon, seed)
				if err != nil {
					t.Fatalf("%s config %d seed %d: san: %v", name, ci, seed, err)
				}
				d.Compare(fmt.Sprintf("%s config %d seed %d", name, ci, seed), fast, san)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 15,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: uniWL(4)}, {VCPUs: 1, Workload: uniWL(0)}},
	}
	factory := func() core.Scheduler { return sched.NewRelaxedCo(sched.RelaxedCoParams{Timeslice: 15}) }
	a, err := RunReplication(cfg, factory, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplication(cfg, factory, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range a {
		if b[name] != v {
			t.Errorf("metric %s not deterministic: %g vs %g", name, v, b[name])
		}
	}
}

func TestSeedsChangeResults(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     1,
		Timeslice: 15,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: uniWL(3)}},
	}
	factory := func() core.Scheduler { return sched.NewRoundRobin(15) }
	a, err := RunReplication(cfg, factory, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplication(cfg, factory, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a[core.VCPUUtilizationAvgMetric] == b[core.VCPUUtilizationAvgMetric] {
		t.Error("different seeds produced identical utilization (suspicious)")
	}
}

// badSched violates the engine contract to exercise error reporting.
type badSched struct {
	mode string
}

func (b *badSched) Name() string { return "bad" }

func (b *badSched) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	switch b.mode {
	case "unknown-vcpu":
		acts.Assign(42, 0, 10)
	case "unknown-pcpu":
		acts.Assign(0, 42, 10)
	case "bad-timeslice":
		acts.Assign(0, 0, 0)
	case "double-vcpu":
		acts.Assign(0, 0, 10)
		acts.Assign(0, 1, 10)
	case "busy-pcpu":
		acts.Assign(0, 0, 10)
		acts.Assign(1, 0, 10)
	case "preempt-inactive":
		acts.Preempt(0)
	}
}

func TestBadSchedulerErrors(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 10,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: uniWL(0)}},
	}
	for _, mode := range []string{
		"unknown-vcpu", "unknown-pcpu", "bad-timeslice",
		"double-vcpu", "busy-pcpu", "preempt-inactive",
	} {
		t.Run(mode, func(t *testing.T) {
			_, err := RunReplication(cfg, func() core.Scheduler { return &badSched{mode: mode} }, 10, 1)
			if err == nil {
				t.Fatal("bad scheduler not detected")
			}
			if !strings.Contains(err.Error(), "bad") {
				t.Fatalf("error %q does not name the scheduler", err)
			}
		})
	}
}

// TestTickHook checks the tick hook fires once per tick, in order, and
// that the PCPU track it reads is coherent: with one PCPU rotating
// between two VCPUs every 10 ticks, every schedule-in but the final
// holder's is matched by a schedule-out, and the track sees every grant
// the engine counts.
func TestTickHook(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     1,
		Timeslice: 10,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: detWL(3, 0)}},
	}
	eng, err := New(cfg, sched.NewRoundRobin(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ticks     int64
		ins, outs int64
		pc        core.PCPUView
	)
	occupant := -1
	eng.SetTickHook(func(now int64) {
		if now != ticks {
			t.Fatalf("hook called at tick %d, want %d", now, ticks)
		}
		ticks++
		eng.InspectPCPU(0, &pc)
		if pc.VCPU != occupant {
			if occupant >= 0 {
				outs++
			}
			if pc.VCPU >= 0 {
				ins++
			}
			occupant = pc.VCPU
		}
	})
	if _, err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("hook called %d times over 100 ticks", ticks)
	}
	if ins == 0 || outs == 0 {
		t.Fatalf("PCPU track saw ins=%d outs=%d", ins, outs)
	}
	if diff := ins - outs; diff < 0 || diff > 1 {
		t.Errorf("ins %d vs outs %d: unbalanced", ins, outs)
	}
	if s := eng.Stats(); ins != s.ScheduleIns || outs != s.ScheduleOuts {
		t.Errorf("PCPU track saw %d ins and %d outs, engine counted %d and %d", ins, outs, s.ScheduleIns, s.ScheduleOuts)
	}
}

// TestBlockedFractionInterpretation pins down the blocked metric: sync 1:1
// with always-scheduled VCPUs keeps the VM blocked every sampled tick.
func TestBlockedFractionInterpretation(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 50,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: detWL(5, 1)}},
	}
	m, err := RunReplication(cfg, func() core.Scheduler { return sched.NewRoundRobin(50) }, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[core.BlockedFractionMetric] < 0.99 {
		t.Errorf("blocked fraction = %g, want ~1", m[core.BlockedFractionMetric])
	}
}

// TestJobAndUnblockCounters pins the impulse counters on a hand-computable
// scenario: deterministic 5-tick jobs, sync 1:2, two always-scheduled
// VCPUs. Each barrier cycle dispatches exactly 2 jobs and releases exactly
// one barrier every 5 ticks.
func TestJobAndUnblockCounters(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 1000,
		VMs:       []core.VMConfig{{VCPUs: 2, Workload: detWL(5, 2)}},
	}
	m, err := RunReplication(cfg, func() core.Scheduler { return sched.NewRoundRobin(1000) }, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: 2 jobs dispatched at t=0, complete at t=5, barrier releases
	// and the next pair dispatches -> 2 jobs and 1 unblock per 5 ticks.
	jobs := m[core.JobsMetric(0)]
	unblocks := m[core.UnblocksMetric(0)]
	if jobs < 396 || jobs > 400 {
		t.Errorf("jobs = %g, want ~400 (2 per 5-tick cycle over 1000 ticks)", jobs)
	}
	if unblocks < 198 || unblocks > 200 {
		t.Errorf("unblocks = %g, want ~200", unblocks)
	}
	if math.Abs(jobs-2*unblocks) > 2 {
		t.Errorf("jobs (%g) should be twice the unblocks (%g) at sync 1:2", jobs, unblocks)
	}
}

// TestWorkPlusSpinEqualsBusy asserts the exact accounting identity of the
// spinlock extension: every busy tick is either productive or spin.
func TestWorkPlusSpinEqualsBusy(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 15,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: workload.Spec{
				Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 2, SyncKind: workload.SyncSpinlock}},
			{VCPUs: 2, Workload: uniWL(3)},
		},
	}
	for name, factory := range factories() {
		m, err := RunReplication(cfg, factory, 3000, 11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := m[core.EffectiveUtilizationMetric] + m[core.SpinFractionMetric]
		if math.Abs(sum-m[core.VCPUUtilizationAvgMetric]) > 1e-12 {
			t.Errorf("%s: work (%g) + spin (%g) != busy (%g)",
				name, m[core.EffectiveUtilizationMetric], m[core.SpinFractionMetric], m[core.VCPUUtilizationAvgMetric])
		}
	}
}
