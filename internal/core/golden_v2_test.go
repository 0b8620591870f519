package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// goldenV2Cases are the cells pinned by the contract-v2 determinism
// golden. Workload load durations are sampled imperatively from the
// shared rng.Source (identical under both contracts), so the compiled
// program only contains exponential TIMED ACTIVITIES — where the v2
// ziggurat lowering engages — through a fault campaign with exponential
// inter-fault and repair clocks. The healthy exponential-load cell pins
// the shared executor and kernel end to end (it coincides with v1, see
// TestGoldenV2MatchesV1WithoutStochasticClocks); the fault cell pins the
// ziggurat-driven trajectory (it diverges from v1, see
// TestGoldenV2DivergesOnExponentialClocks).
func goldenV2Cases() []struct {
	name    string
	cfg     core.SystemConfig
	factory core.SchedulerFactory
	seed    uint64
	horizon float64
} {
	expWL := workload.Spec{Load: rng.Exponential{Rate: 0.2}, SyncEveryN: 5}
	fig8exp := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		Contract:  2,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: expWL},
			{VCPUs: 1, Workload: expWL},
			{VCPUs: 1, Workload: expWL},
		},
	}
	fig8faults := fig8exp
	fig8faults.Faults = &faults.Plan{Faults: []faults.Spec{
		{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.002},
			Duration: &faults.Dist{Dist: "exponential", Rate: 0.01},
			Count:    5},
	}}
	return []struct {
		name    string
		cfg     core.SystemConfig
		factory core.SchedulerFactory
		seed    uint64
		horizon float64
	}{
		{"fig8exp/RRS/seed1", fig8exp, func() core.Scheduler { return sched.NewRoundRobin(30) }, 1, 5000},
		{"fig8exp/SCS/seed1", fig8exp, func() core.Scheduler { return sched.NewStrictCo(30) }, 1, 5000},
		{"fig8exp+expfaults/RRS/seed1", fig8faults, func() core.Scheduler { return sched.NewRoundRobin(30) }, 1, 5000},
	}
}

func goldenV2Path() string {
	return filepath.Join("testdata", "golden_determinism_v2.json")
}

// TestGoldenDeterminismV2 pins the contract-v2 end-to-end trajectory
// (ziggurat-sampled fault clocks on the shared executor and kernel) bit
// for bit. Shares golden_test.go's -update flag; re-record only when a
// change intentionally declares a new contract version.
func TestGoldenDeterminismV2(t *testing.T) {
	if *updateGolden {
		golden := make(map[string]map[string]string)
		for _, gc := range goldenV2Cases() {
			golden[gc.name] = runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
		}
		buf, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenV2Path(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenV2Path())
		return
	}

	buf, err := os.ReadFile(goldenV2Path())
	if err != nil {
		t.Fatalf("missing contract-v2 golden fixture (run with -update to record): %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatalf("corrupt contract-v2 golden fixture: %v", err)
	}
	for _, gc := range goldenV2Cases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			want, ok := golden[gc.name]
			if !ok {
				t.Fatalf("fixture has no entry %q (re-record with -update)", gc.name)
			}
			got := runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
			if len(got) != len(want) {
				t.Errorf("metric count %d, want %d", len(got), len(want))
			}
			for name, wantHex := range want {
				if gotHex := got[name]; gotHex != wantHex {
					t.Errorf("metric %s = %s, want %s: contract-v2 trajectory diverged", name, gotHex, wantHex)
				}
			}
		})
	}
}

// TestGoldenV2MatchesV1WithoutStochasticClocks documents the scope of
// the v2 divergence: on the v1 golden cells (uniform loads, deterministic
// timeslices — no exponential or normal clocks in the compiled program)
// contract v2 must reproduce contract v1 bit for bit, because the
// contract selects only the variate stream and the ziggurat never
// engages.
func TestGoldenV2MatchesV1WithoutStochasticClocks(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			v1cfg, v2cfg := gc.cfg, gc.cfg
			v1cfg.Contract = 1
			v2cfg.Contract = 2
			v1 := runGoldenCase(t, v1cfg, gc.factory, gc.horizon, gc.seed)
			v2 := runGoldenCase(t, v2cfg, gc.factory, gc.horizon, gc.seed)
			if fmt.Sprint(v1) != fmt.Sprint(v2) {
				t.Fatalf("uniform-clock trajectories differ across contracts:\nv1: %v\nv2: %v", v1, v2)
			}
		})
	}
}

// TestGoldenV2DivergesOnExponentialClocks is the complementary bound: a
// cell whose compiled program contains exponential timed activities (the
// fault campaign's inter-fault and repair clocks) samples them through
// the ziggurat under v2, so the trajectories must differ (if they
// coincided, the v2 fast path would not be wired through the compiled
// arc plans).
func TestGoldenV2DivergesOnExponentialClocks(t *testing.T) {
	cases := goldenV2Cases()
	gc := cases[len(cases)-1] // the fault-campaign cell
	v1cfg, v2cfg := gc.cfg, gc.cfg
	v1cfg.Contract = 1
	v2cfg.Contract = 2
	v1 := runGoldenCase(t, v1cfg, gc.factory, gc.horizon, gc.seed)
	v2 := runGoldenCase(t, v2cfg, gc.factory, gc.horizon, gc.seed)
	if fmt.Sprint(v1) == fmt.Sprint(v2) {
		t.Fatal("exponential-clock trajectories identical across contracts; v2 lowering not engaged")
	}
}

// TestGoldenV2PooledEquivalence extends the pooled contract to v2: a
// Worker reused across replications must reproduce the fresh-build path
// bit for bit under contract 2, including repeated seeds.
func TestGoldenV2PooledEquivalence(t *testing.T) {
	for _, gc := range goldenV2Cases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			w, err := core.NewWorker(gc.cfg, gc.factory)
			if err != nil {
				t.Fatal(err)
			}
			const horizon = 2000
			for _, seed := range []uint64{gc.seed, gc.seed + 1, 99, gc.seed} {
				want, err := core.RunReplication(gc.cfg, gc.factory, horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("seed %d: pooled v2 metrics differ from fresh:\npooled: %v\nfresh:  %v", seed, got, want)
				}
			}
		})
	}
}
