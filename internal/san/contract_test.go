package san_test

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// fig8System builds the paper's Figure 8 host (three VMs with 2+1+1 VCPUs
// on two PCPUs), optionally under a fault plan.
func fig8System(t *testing.T, plan *faults.Plan) *san.Model {
	t.Helper()
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: wl},
			{VCPUs: 1, Workload: wl},
			{VCPUs: 1, Workload: wl},
		},
		Faults: plan,
	}
	sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), rng.New(1))
	if err != nil {
		t.Fatalf("build fig8: %v", err)
	}
	return sys.Model()
}

// TestContractSelectsOnlyVariateStream pins what a determinism contract
// means: compiled under ContractV1 and ContractV2, the same model yields
// the same executor bookkeeping — single-arc enabling cache, dense or
// sparse touch masks, fused firing touches — and differs only in the delay
// sampler of its exponential and normal timed activities.
func TestContractSelectsOnlyVariateStream(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model func() *san.Model
	}{
		{"fig8", func() *san.Model { return fig8System(t, nil) }},
		{"tandem64", func() *san.Model { return san.BuildTandem(64) }},
		{"fig8+faults", func() *san.Model {
			return fig8System(t, &faults.Plan{Faults: []faults.Spec{
				{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 1500,
					Duration: &faults.Dist{Dist: "exponential", Rate: 0.001}},
				{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0,
					Every:    &faults.Dist{Dist: "exponential", Rate: 0.002},
					Duration: &faults.Dist{Dist: "uniform", Low: 50, High: 200},
					Count:    3},
			}})
		}},
		// 257 timed activities: a six-word arena, past the dense layouts,
		// with a normal clock for the v2 normal lowering.
		{"tandem255+normal", func() *san.Model {
			m := san.BuildTandem(255)
			s := m.Sub("jitter")
			s.TimedActivity("serve", rng.Normal{Mu: 1, Sigma: 0.1}).InputArc(s.Place("q", 1), 1)
			return m
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model()
			v1, err := san.Compile(m, san.WithContract(san.ContractV1))
			if err != nil {
				t.Fatal(err)
			}
			v2, err := san.Compile(m, san.WithContract(san.ContractV2))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range san.BookkeepingDiff(v1, v2) {
				t.Error(d)
			}
		})
	}
}
