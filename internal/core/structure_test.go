package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// scriptSched is a scheduling function defined inline by tests.
type scriptSched struct {
	name string
	fn   func(now int64, vcpus []VCPUView, pcpus []PCPUView, acts *Actions)
}

func (s *scriptSched) Name() string { return s.name }

func (s *scriptSched) Schedule(now int64, vcpus []VCPUView, pcpus []PCPUView, acts *Actions) {
	if s.fn != nil {
		s.fn(now, vcpus, pcpus, acts)
	}
}

// greedy assigns every inactive VCPU to the first idle PCPU (ID order).
func greedy(timeslice int64) *scriptSched {
	return &scriptSched{name: "greedy", fn: func(_ int64, vcpus []VCPUView, pcpus []PCPUView, acts *Actions) {
		idle := AppendIdlePCPUs(nil, pcpus)
		for _, v := range vcpus {
			if len(idle) == 0 {
				return
			}
			if v.Status == Inactive {
				acts.Assign(v.ID, idle[0], timeslice)
				idle = idle[1:]
			}
		}
	}}
}

func buildTestSystem(t *testing.T, cfg SystemConfig, sched Scheduler) *System {
	t.Helper()
	sys, err := BuildSystem(cfg, sched, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestTable1JoinPlaces asserts the join-place structure of the paper's
// Table 1: within a VM composed model, Blocked and Num_VCPUs_ready are
// shared by the workload generator, the job scheduler, and every VCPU
// sub-model; the Workload place is shared by generator and job scheduler;
// each VCPUk_slot is shared by the job scheduler and VCPU k.
func TestTable1JoinPlaces(t *testing.T) {
	cfg := SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs:       []VMConfig{{Name: "VM1", VCPUs: 2, Workload: wl()}},
	}
	sys := buildTestSystem(t, cfg, greedy(30))
	model := sys.Model()

	joins := make(map[string][]string)
	for _, p := range model.Places() {
		joins[p.Name()] = p.JoinedBy()
	}
	for name, j := range model.ExtPlaceJoins() {
		joins[name] = j
	}

	assertJoin := func(place string, want ...string) {
		t.Helper()
		got := append([]string(nil), joins[place]...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("join places of %s = %v, want %v", place, got, want)
		}
	}

	assertJoin("VM1.Job_Scheduler/Blocked",
		"VM1.Job_Scheduler", "VM1.Workload_Generator", "VM1.VCPU1", "VM1.VCPU2")
	assertJoin("VM1.Job_Scheduler/Num_VCPUs_ready",
		"VM1.Job_Scheduler", "VM1.Workload_Generator", "VM1.VCPU1", "VM1.VCPU2")
	assertJoin("VM1.Job_Scheduler/Workload",
		"VM1.Job_Scheduler", "VM1.Workload_Generator")
	assertJoin("VM1.Job_Scheduler/VCPU1_slot", "VM1.Job_Scheduler", "VM1.VCPU1")
	assertJoin("VM1.Job_Scheduler/VCPU2_slot", "VM1.Job_Scheduler", "VM1.VCPU2")
}

// TestTable2JoinPlaces asserts the join-place structure of the paper's
// Table 2: each VCPU's Schedule_In and Schedule_Out places are shared
// between its VCPU sub-model and the VCPU-scheduler sub-model.
func TestTable2JoinPlaces(t *testing.T) {
	cfg := SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl()},
			{Name: "VM2", VCPUs: 1, Workload: wl()},
		},
	}
	sys := buildTestSystem(t, cfg, greedy(30))

	joins := make(map[string][]string)
	for _, p := range sys.Model().Places() {
		joins[p.Name()] = p.JoinedBy()
	}
	cases := []struct {
		place string
		vcpu  string
	}{
		{"VCPU_Scheduler/Schedule_In_1_1", "VM1.VCPU1"},
		{"VCPU_Scheduler/Schedule_Out_1_1", "VM1.VCPU1"},
		{"VCPU_Scheduler/Schedule_In_1_2", "VM1.VCPU2"},
		{"VCPU_Scheduler/Schedule_Out_1_2", "VM1.VCPU2"},
		{"VCPU_Scheduler/Schedule_In_2_1", "VM2.VCPU1"},
		{"VCPU_Scheduler/Schedule_Out_2_1", "VM2.VCPU1"},
	}
	for _, tc := range cases {
		got := append([]string(nil), joins[tc.place]...)
		sort.Strings(got)
		want := []string{"VCPU_Scheduler", tc.vcpu}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("join places of %s = %v, want %v", tc.place, got, want)
		}
	}
}

// TestComponentInventory checks that the composed model contains the
// sub-model structure of the paper's Figures 3-7: per VM one generator
// activity, one dispatch activity, one unblock activity, and per VCPU the
// processing and schedule-in/out activities; plus the scheduler's Clock
// and Scheduling_Func.
func TestComponentInventory(t *testing.T) {
	cfg := SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs: []VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl()},
			{Name: "VM2", VCPUs: 3, Workload: wl()},
		},
	}
	sys := buildTestSystem(t, cfg, greedy(30))
	model := sys.Model()

	var names []string
	for _, a := range model.Activities() {
		names = append(names, a.Name())
	}
	want := []string{
		"VCPU_Scheduler/Clock",
		"VCPU_Scheduler/Scheduling_Func",
		"VM1.Workload_Generator/Generate",
		"VM1.Job_Scheduler/Scheduling",
		"VM1.Job_Scheduler/Unblock",
		"VM1.VCPU1/Processing_load",
		"VM1.VCPU1/Schedule_In_evt",
		"VM1.VCPU1/Schedule_Out_evt",
		"VM2.VCPU3/Processing_load",
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing activity %s (have %v)", w, names)
		}
	}
	// 2 scheduler activities + per VM 3 + per VCPU 3.
	wantCount := 2 + 2*3 + 5*3
	if len(names) != wantCount {
		t.Errorf("activity count = %d, want %d", len(names), wantCount)
	}
}

// TestNumPCPUsPlace checks the configuration place of the scheduler model.
func TestNumPCPUsPlace(t *testing.T) {
	sys := buildTestSystem(t, SystemConfig{
		PCPUs:     3,
		Timeslice: 30,
		VMs:       []VMConfig{{VCPUs: 1, Workload: wl()}},
	}, greedy(30))
	for _, p := range sys.Model().Places() {
		if p.Name() == "VCPU_Scheduler/Num_PCPUs" {
			if p.Tokens() != 3 {
				t.Fatalf("Num_PCPUs marking = %d, want 3", p.Tokens())
			}
			return
		}
	}
	t.Fatal("Num_PCPUs place missing")
}

// TestRewardInventory checks that every metric the figures need is
// registered.
func TestRewardInventory(t *testing.T) {
	cfg := SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs:       []VMConfig{{VCPUs: 2, Workload: wl()}, {VCPUs: 1, Workload: wl()}},
	}
	sys := buildTestSystem(t, cfg, greedy(30))
	names := sys.Model().RateRewardNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	want := []string{
		AvailabilityMetric(0, 0), AvailabilityMetric(0, 1), AvailabilityMetric(1, 0),
		VCPUUtilizationMetric(0, 0), VCPUUtilizationMetric(0, 1), VCPUUtilizationMetric(1, 0),
		PCPUUtilizationMetric(0), PCPUUtilizationMetric(1),
		AvailabilityAvgMetric, VCPUUtilizationAvgMetric, PCPUUtilizationAvgMetric,
		BlockedFractionMetric, SpinFractionMetric, EffectiveUtilizationMetric,
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing reward variable %s", w)
		}
	}
	if len(names) != len(want) {
		t.Errorf("reward count = %d, want %d", len(names), len(want))
	}
}

func TestBuildSystemErrors(t *testing.T) {
	good := SystemConfig{PCPUs: 1, Timeslice: 30, VMs: []VMConfig{{VCPUs: 1, Workload: wl()}}}
	if _, err := BuildSystem(SystemConfig{}, greedy(30), rng.New(1)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := BuildSystem(good, nil, rng.New(1)); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := BuildSystem(good, greedy(30), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := buildTestSystem(t, validConfig(), greedy(30))
	if sys.Model() == nil {
		t.Error("Model() accessor nil")
	}
}

// TestDotExportStructure spot-checks the DOT rendering of a composed
// system (the stand-in for the paper's model figures).
func TestDotExportStructure(t *testing.T) {
	sys := buildTestSystem(t, SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs:       []VMConfig{{Name: "VM1", VCPUs: 1, Workload: wl()}},
	}, greedy(30))
	dot := sys.Model().Dot()
	for _, want := range []string{
		"VCPU_Scheduler", "VM1.Workload_Generator", "VM1.Job_Scheduler", "VM1.VCPU1",
		"Clock", "Scheduling_Func", "Processing_load",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestViewContract verifies the documented views contract: vcpus[i].ID ==
// i, PCPU views consistent, timestamps increasing by one per tick.
func TestViewContract(t *testing.T) {
	var lastNow int64 = -1
	checker := &scriptSched{name: "checker"}
	var fail string
	checker.fn = func(now int64, vcpus []VCPUView, pcpus []PCPUView, acts *Actions) {
		if now != lastNow+1 {
			fail = fmt.Sprintf("timestamps not consecutive: %d after %d", now, lastNow)
		}
		lastNow = now
		for i, v := range vcpus {
			if v.ID != i {
				fail = fmt.Sprintf("vcpus[%d].ID = %d", i, v.ID)
			}
			if v.Status == Inactive && v.PCPU != -1 {
				fail = fmt.Sprintf("inactive VCPU %d has PCPU %d", i, v.PCPU)
			}
			if v.Status.Active() && v.PCPU < 0 {
				fail = fmt.Sprintf("active VCPU %d has no PCPU", i)
			}
		}
		for i, p := range pcpus {
			if p.ID != i {
				fail = fmt.Sprintf("pcpus[%d].ID = %d", i, p.ID)
			}
			if p.VCPU >= 0 && vcpus[p.VCPU].PCPU != p.ID {
				fail = fmt.Sprintf("pcpu %d thinks it runs vcpu %d, which points at %d", i, p.VCPU, vcpus[p.VCPU].PCPU)
			}
		}
		// Behave like greedy so state evolves.
		idle := AppendIdlePCPUs(nil, pcpus)
		for _, v := range vcpus {
			if len(idle) == 0 {
				break
			}
			if v.Status == Inactive {
				acts.Assign(v.ID, idle[0], 5)
				idle = idle[1:]
			}
		}
	}
	cfg := SystemConfig{
		PCPUs:     2,
		Timeslice: 5,
		VMs:       []VMConfig{{VCPUs: 2, Workload: wl()}, {VCPUs: 1, Workload: wl()}},
	}
	if _, err := RunReplication(cfg, func() Scheduler { return checker }, 200, 3); err != nil {
		t.Fatal(err)
	}
	if fail != "" {
		t.Fatal(fail)
	}
	if lastNow != 199 {
		t.Fatalf("scheduler ran %d times, want 200 (t=0..199; the horizon tick is outside the half-open window)", lastNow+1)
	}
}
