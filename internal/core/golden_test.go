package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden determinism fixture from the current engine")

// goldenCase is one (model, scheduler, seed) cell of a determinism golden.
type goldenCase struct {
	name    string
	cfg     core.SystemConfig
	factory core.SchedulerFactory
	seed    uint64
	horizon float64
}

// goldenCases are the cells pinned by the determinism golden: the paper's
// Figure 8 topology under RRS/SCS and the spinlock (lock-holder-preemption)
// topology under RRS. Horizons are long enough to exercise timeslice
// expiry, sync barriers, and spin states.
func goldenCases() []goldenCase {
	fig8WL := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	fig8 := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: fig8WL},
			{VCPUs: 1, Workload: fig8WL},
			{VCPUs: 1, Workload: fig8WL},
		},
	}
	spinWL := workload.Spec{
		Load:       rng.Uniform{Low: 1, High: 10},
		SyncEveryN: 2,
		SyncKind:   workload.SyncSpinlock,
	}
	spin := core.SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 3, Workload: spinWL},
			{VCPUs: 3, Workload: spinWL},
		},
	}
	return []goldenCase{
		{"fig8/RRS/seed1", fig8, func() core.Scheduler { return sched.NewRoundRobin(30) }, 1, 5000},
		{"fig8/RRS/seed7", fig8, func() core.Scheduler { return sched.NewRoundRobin(30) }, 7, 5000},
		{"fig8/SCS/seed1", fig8, func() core.Scheduler { return sched.NewStrictCo(30) }, 1, 5000},
		{"spinlock/RRS/seed3", spin, func() core.Scheduler { return sched.NewRoundRobin(30) }, 3, 5000},
	}
}

// expGoldenCases pin the Figure 8 topology under exponential loads, the
// only end-to-end golden whose load durations are drawn from an
// exponential distribution (sampled imperatively from the replication's
// rng.Source by the workload).
func expGoldenCases() []goldenCase {
	expWL := workload.Spec{Load: rng.Exponential{Rate: 0.2}, SyncEveryN: 5}
	fig8exp := core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: expWL},
			{VCPUs: 1, Workload: expWL},
			{VCPUs: 1, Workload: expWL},
		},
	}
	return []goldenCase{
		{"fig8exp/RRS/seed1", fig8exp, func() core.Scheduler { return sched.NewRoundRobin(30) }, 1, 5000},
		{"fig8exp/SCS/seed1", fig8exp, func() core.Scheduler { return sched.NewStrictCo(30) }, 1, 5000},
	}
}

// runGoldenCase executes one golden cell on the SAN engine and renders the
// metrics as name -> hex-float.
func runGoldenCase(t *testing.T, cfg core.SystemConfig, factory core.SchedulerFactory, horizon float64, seed uint64) map[string]string {
	t.Helper()
	m, err := core.RunReplication(cfg, factory, horizon, seed)
	if err != nil {
		t.Fatalf("golden replication: %v", err)
	}
	out := make(map[string]string, len(m))
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out[name] = strconv.FormatFloat(m[name], 'x', -1, 64)
	}
	return out
}

// checkGolden pins every case's reward values bit-for-bit against the
// fixture at path, which holds each value as an exact hexadecimal float
// (strconv 'x' format). With -update it re-records the fixture instead —
// only legitimate when a change intentionally alters the trajectory, which
// must be called out in the change.
func checkGolden(t *testing.T, path string, cases []goldenCase) {
	t.Helper()
	if *updateGolden {
		golden := make(map[string]map[string]string)
		for _, gc := range cases {
			golden[gc.name] = runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
		}
		buf, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to record): %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			want, ok := golden[gc.name]
			if !ok {
				t.Fatalf("golden fixture has no entry %q (re-record with -update)", gc.name)
			}
			got := runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
			if len(got) != len(want) {
				t.Errorf("metric count %d, want %d", len(got), len(want))
			}
			for name, wantHex := range want {
				gotHex, ok := got[name]
				if !ok {
					t.Errorf("metric %s missing from run", name)
					continue
				}
				if gotHex != wantHex {
					gotV, _ := strconv.ParseFloat(gotHex, 64)
					wantV, _ := strconv.ParseFloat(wantHex, 64)
					t.Errorf("metric %s = %s (%g), want %s (%g): same-seed trajectory diverged by %g",
						name, gotHex, gotV, wantHex, wantV, math.Abs(gotV-wantV))
				}
			}
		})
	}
}

// TestGoldenDeterminism pins the SAN engine's same-seed reward values
// bit-for-bit: the incidence-indexed hot path must reproduce the
// trajectory of the pre-index engine exactly (same RNG draw order, same
// reward arithmetic).
func TestGoldenDeterminism(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden_determinism.json"), goldenCases())
}

// TestGoldenDeterminismExp pins the exponential-load cells bit-for-bit.
func TestGoldenDeterminismExp(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden_determinism_exp.json"), expGoldenCases())
}

// TestGoldenRepeatable guards the golden harness itself: two fresh
// replications of the same cell must agree bit-for-bit within one build,
// independent of the fixture.
func TestGoldenRepeatable(t *testing.T) {
	gc := goldenCases()[0]
	a := runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
	b := runGoldenCase(t, gc.cfg, gc.factory, gc.horizon, gc.seed)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same-seed replications diverged within one build:\n%v\n%v", a, b)
	}
}
