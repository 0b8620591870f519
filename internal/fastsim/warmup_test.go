package fastsim

import (
	"fmt"
	"math"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/enginetest"
	"vcpusim/internal/sched"
)

func TestWarmupValidation(t *testing.T) {
	cfg := core.SystemConfig{PCPUs: 1, Timeslice: 10, VMs: []core.VMConfig{{VCPUs: 1, Workload: uniWL(0)}}}
	eng, err := New(cfg, sched.NewRoundRobin(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunInterval(-1, 100); err == nil {
		t.Error("negative warmup accepted")
	}
	eng, _ = New(cfg, sched.NewRoundRobin(10), 1)
	if _, err := eng.RunInterval(100, 100); err == nil {
		t.Error("warmup >= horizon accepted")
	}
}

// TestWarmupRemovesTransient: a scheduler that leaves the system idle for
// the first 50 ticks and then pins the VCPU produces availability 0.5 over
// the full window but exactly 1.0 once the transient is discarded.
func TestWarmupRemovesTransient(t *testing.T) {
	fn := func(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
		if now >= 50 && vcpus[0].Status == core.Inactive {
			acts.Assign(0, 0, 1000)
		}
	}
	cfg := core.SystemConfig{
		PCPUs:     1,
		Timeslice: 1000,
		VMs:       []core.VMConfig{{VCPUs: 1, Workload: detWL(3, 0)}},
	}
	full, err := New(cfg, &pinSched{fn: fn}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mFull, err := full.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := mFull[core.AvailabilityMetric(0, 0)]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("full-window availability = %g, want 0.5", got)
	}

	warm, err := New(cfg, &pinSched{fn: fn}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mWarm, err := warm.RunInterval(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := mWarm[core.AvailabilityMetric(0, 0)]; got != 1 {
		t.Fatalf("post-warmup availability = %g, want 1", got)
	}
}

// TestWarmupEngineParity: the SAN and fast engines agree under transient
// removal too.
func TestWarmupEngineParity(t *testing.T) {
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 20,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: uniWL(3)},
			{VCPUs: 2, Workload: uniWL(0)},
		},
	}
	d := enginetest.New(t)
	for name, factory := range factories() {
		for _, warmup := range []int64{1, 100, 999} {
			fast, err := RunReplicationInterval(cfg, factory, warmup, 2000, 5)
			if err != nil {
				t.Fatalf("%s fast: %v", name, err)
			}
			san, err := core.RunReplicationInterval(cfg, factory, float64(warmup), 2000, 5)
			if err != nil {
				t.Fatalf("%s san: %v", name, err)
			}
			d.Compare(fmt.Sprintf("%s warmup=%d", name, warmup), fast, san)
		}
	}
}
