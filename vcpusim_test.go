package vcpusim_test

import (
	"context"
	"strings"
	"testing"

	"vcpusim"
	"vcpusim/internal/enginetest"
)

func testConfig() vcpusim.SystemConfig {
	return vcpusim.SystemConfig{
		PCPUs:     2,
		Timeslice: 20,
		VMs: []vcpusim.VMConfig{
			{Name: "a", VCPUs: 2, Workload: vcpusim.WorkloadSpec{
				Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 5}},
			{Name: "b", VCPUs: 1, Workload: vcpusim.WorkloadSpec{
				Load: vcpusim.Exponential{Rate: 0.2}}},
		},
	}
}

func TestRunProducesMetrics(t *testing.T) {
	m, err := vcpusim.Run(testConfig(), vcpusim.RoundRobin(20), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		vcpusim.AvailabilityMetric(0, 0),
		vcpusim.AvailabilityMetric(0, 1),
		vcpusim.AvailabilityMetric(1, 0),
		vcpusim.VCPUUtilizationMetric(0, 0),
		vcpusim.PCPUUtilizationMetric(0),
		vcpusim.PCPUUtilizationMetric(1),
		vcpusim.AvailabilityAvgMetric,
		vcpusim.VCPUUtilizationAvgMetric,
		vcpusim.PCPUUtilizationAvgMetric,
		vcpusim.BlockedFractionMetric,
		vcpusim.SpinFractionMetric,
		vcpusim.EffectiveUtilizationMetric,
	} {
		v, ok := m[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if v < 0 || v > 1 {
			t.Errorf("metric %s = %g out of [0,1]", name, v)
		}
	}
}

func TestRunMatchesRunSAN(t *testing.T) {
	cfg := testConfig()
	d := enginetest.New(t)
	for _, factory := range []vcpusim.SchedulerFactory{
		vcpusim.RoundRobin(20),
		vcpusim.StrictCo(20),
		vcpusim.RelaxedCo(vcpusim.RelaxedCoParams{Timeslice: 20}),
		vcpusim.Balance(20),
		vcpusim.Credit(vcpusim.CreditParams{Timeslice: 20}),
	} {
		fast, err := vcpusim.Run(cfg, factory, 1000, 9)
		if err != nil {
			t.Fatal(err)
		}
		san, err := vcpusim.RunSAN(cfg, factory, 1000, 9)
		if err != nil {
			t.Fatal(err)
		}
		d.Compare(factory().Name(), fast, san)
	}
}

func TestRunTraced(t *testing.T) {
	m, rec, err := vcpusim.RunTraced(testConfig(), vcpusim.RoundRobin(20), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) == 0 {
		t.Fatal("no metrics")
	}
	if rec.Events() == 0 {
		t.Fatal("no trace events")
	}
	if g := rec.Gantt(500, 10, 80); !strings.Contains(g, "PCPU0") || !strings.Contains(g, "PCPU1") {
		t.Fatalf("gantt output: %q", g)
	}
}

func TestReplicate(t *testing.T) {
	sum, err := vcpusim.Replicate(context.Background(), testConfig(), vcpusim.RoundRobin(20), 1000,
		vcpusim.SimOptions{Seed: 1, MinReps: 4, MaxReps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replications < 4 {
		t.Fatalf("replications = %d", sum.Replications)
	}
	iv, ok := sum.Metric(vcpusim.AvailabilityAvgMetric)
	if !ok || iv.Mean <= 0 || iv.Mean > 1 {
		t.Fatalf("availability interval = %v, %v", iv, ok)
	}
}

func TestSchedulerByName(t *testing.T) {
	for _, name := range []string{"RRS", "SCS", "RCS", "Balance", "Credit"} {
		f, err := vcpusim.SchedulerByName(name, vcpusim.SchedParams{Timeslice: 10})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if f().Name() == "" {
			t.Errorf("%s: empty scheduler name", name)
		}
	}
	if _, err := vcpusim.SchedulerByName("bogus", vcpusim.SchedParams{Timeslice: 10}); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestBuildModelDot(t *testing.T) {
	sys, err := vcpusim.BuildModel(testConfig(), vcpusim.RoundRobin(20), 1)
	if err != nil {
		t.Fatal(err)
	}
	dot := sys.Model().Dot()
	for _, want := range []string{"VCPU_Scheduler", "a.Job_Scheduler", "b.Workload_Generator"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestSpinlockThroughFacade(t *testing.T) {
	cfg := vcpusim.SystemConfig{
		PCPUs:     1,
		Timeslice: 10,
		VMs: []vcpusim.VMConfig{
			{VCPUs: 2, Workload: vcpusim.WorkloadSpec{
				Load:       vcpusim.Uniform{Low: 1, High: 10},
				SyncEveryN: 2,
				SyncKind:   vcpusim.SyncSpinlock,
			}},
		},
	}
	m, err := vcpusim.Run(cfg, vcpusim.RoundRobin(10), 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// On one PCPU the running sibling regularly spins behind the
	// descheduled holder.
	if m[vcpusim.SpinFractionMetric] <= 0 {
		t.Error("no spinning on a contended spinlock workload")
	}
	if m[vcpusim.EffectiveUtilizationMetric] >= m[vcpusim.VCPUUtilizationAvgMetric] {
		t.Error("effective utilization not below busy utilization")
	}
}

func TestDefaultExperimentParams(t *testing.T) {
	p := vcpusim.DefaultExperimentParams()
	if p.Horizon != 20000 || p.Timeslice != 30 {
		t.Fatalf("defaults = %+v", p)
	}
}
