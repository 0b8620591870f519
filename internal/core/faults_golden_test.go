package core_test

import (
	"path/filepath"
	"strconv"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// goldenFaultPlan is a mixed campaign on the Figure 8 system exercising
// every fault kind: a mid-run PCPU crash with restart, a throttle window,
// a repeating VCPU stall, and a transient misdecision window.
func goldenFaultPlan() *faults.Plan {
	return &faults.Plan{Faults: []faults.Spec{
		{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 1500,
			Duration: &faults.Dist{Dist: "deterministic", Value: 1000}},
		{Name: "slow0", Kind: faults.KindPCPUSlow, PCPU: 0, Factor: 0.5, At: 600,
			Duration: &faults.Dist{Dist: "uniform", Low: 400, High: 800}},
		{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.002},
			Duration: &faults.Dist{Dist: "uniform", Low: 50, High: 200},
			Count:    3},
		{Name: "mis1", Kind: faults.KindMisdecision, At: 4000,
			Duration: &faults.Dist{Dist: "erlang", Rate: 0.02, K: 2}},
	}}
}

// goldenFaultCases pins the fault campaign's reward values under two
// schedulers (gang and non-gang re-seating differ after a crash).
func goldenFaultCases() []goldenCase {
	fig8WL := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: fig8WL},
			{VCPUs: 1, Workload: fig8WL},
			{VCPUs: 1, Workload: fig8WL},
		},
		Faults: goldenFaultPlan(),
	}
	return []goldenCase{
		{"fig8+faults/RRS/seed1", cfg, func() core.Scheduler { return sched.NewRoundRobin(30) }, 1, 5000},
		{"fig8+faults/SCS/seed7", cfg, func() core.Scheduler { return sched.NewStrictCo(30) }, 7, 5000},
	}
}

// TestGoldenFaultCampaign pins the fault-injected trajectory bit-for-bit,
// exactly like TestGoldenDeterminism does for healthy runs: the campaign
// is a pure function of the seed, so any drift here means the injection
// machinery perturbed the executive. Re-record with -update only for an
// intentional trajectory change.
func TestGoldenFaultCampaign(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden_faults.json"), goldenFaultCases())
}

// TestGoldenFaultCampaignSanity asserts the fixture pins an actually
// faulty run: every kind injected, the crash recovered, and work was
// lost — guarding against the golden silently degenerating to a healthy
// trajectory.
func TestGoldenFaultCampaignSanity(t *testing.T) {
	gc := goldenFaultCases()[0]
	m, err := core.RunReplication(gc.cfg, gc.factory, gc.horizon, gc.seed)
	if err != nil {
		t.Fatal(err)
	}
	if m[faults.InjectsMetric] < 4 {
		t.Errorf("campaign injected %g faults, want at least one per spec", m[faults.InjectsMetric])
	}
	if m[faults.SpecRecoversMetric("crash1")] != 1 {
		t.Errorf("crash recovered %g times, want 1", m[faults.SpecRecoversMetric("crash1")])
	}
	if m[faults.DegradedMetric] <= 0 || m[faults.DegradedMetric] >= 1 {
		t.Errorf("degraded fraction %g outside (0, 1)", m[faults.DegradedMetric])
	}
	if m[faults.AvailUnderFaultsMetric] >= m[core.AvailabilityAvgMetric] {
		t.Errorf("availability under faults %g not below overall %g",
			m[faults.AvailUnderFaultsMetric], m[core.AvailabilityAvgMetric])
	}
}

// TestPooledEquivalenceWithFaults extends the pooled contract to fault
// campaigns: a Worker reused across replications must replay the injected
// trajectory bit-for-bit against the fresh path, seed repeats included.
func TestPooledEquivalenceWithFaults(t *testing.T) {
	for _, tc := range goldenFaultCases() {
		t.Run(tc.name, func(t *testing.T) {
			w, err := core.NewWorker(tc.cfg, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 5000 // crash at 1500 must be inside the window
			seeds := []uint64{tc.seed, tc.seed + 1, 99, tc.seed}
			for i, seed := range seeds {
				want, err := core.RunReplication(tc.cfg, tc.factory, horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("rep %d seed %d: pooled has %d metrics, fresh %d", i, seed, len(got), len(want))
				}
				for name, fv := range want {
					pv, ok := got[name]
					if !ok {
						t.Fatalf("rep %d seed %d: pooled missing metric %s", i, seed, name)
					}
					if pv != fv {
						t.Errorf("rep %d seed %d metric %s: pooled %s, fresh %s",
							i, seed, name,
							strconv.FormatFloat(pv, 'x', -1, 64),
							strconv.FormatFloat(fv, 'x', -1, 64))
					}
				}
			}
		})
	}
}
