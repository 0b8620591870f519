package fastsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vcpusim/internal/core"
	"vcpusim/internal/enginetest"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// randomConfig derives a small random-but-valid system from raw fuzz
// inputs.
func randomConfig(pcpus, vms, seed uint64) core.SystemConfig {
	src := rng.New(seed)
	cfg := core.SystemConfig{
		PCPUs:     int(pcpus%4) + 1,
		Timeslice: int64(src.Intn(40)) + 2,
	}
	nVMs := int(vms%3) + 1
	for i := 0; i < nVMs; i++ {
		cfg.VMs = append(cfg.VMs, core.VMConfig{
			VCPUs: src.Intn(3) + 1,
			Workload: workload.Spec{
				Load:       rng.Uniform{Low: 1, High: float64(src.Intn(15) + 2)},
				SyncEveryN: src.Intn(6), // 0 disables
			},
		})
	}
	return cfg
}

func factories() map[string]core.SchedulerFactory {
	mk := func(name string) core.SchedulerFactory {
		f, err := sched.Factory(name, sched.Params{Timeslice: 10})
		if err != nil {
			panic(err)
		}
		return f
	}
	return map[string]core.SchedulerFactory{
		"RRS": mk("RRS"), "SCS": mk("SCS"), "RCS": mk("RCS"),
		"Balance": mk("Balance"), "Credit": mk("Credit"),
	}
}

// TestQuickInvariantsAllSchedulers drives random configurations through
// every built-in scheduler and asserts the global invariants: every metric
// in [0,1], busy time bounded by assigned time, per-VCPU utilization
// bounded by availability, and no engine-contract violations (the engine
// errors on any).
func TestQuickInvariantsAllSchedulers(t *testing.T) {
	for name, factory := range factories() {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			f := func(pcpus, vms, seed uint64) bool {
				cfg := randomConfig(pcpus, vms, seed)
				m, err := RunReplication(cfg, factory, 500, seed^0x9e3779b9)
				if err != nil {
					t.Logf("config %+v: %v", cfg, err)
					return false
				}
				for name, v := range m {
					if math.IsNaN(v) || v < -1e-12 {
						return false
					}
					counter := strings.HasPrefix(name, "jobs/") || strings.HasPrefix(name, "unblocks/")
					if !counter && v > 1+1e-12 {
						return false
					}
				}
				busy := m[core.VCPUUtilizationAvgMetric] * float64(cfg.TotalVCPUs())
				used := m[core.PCPUUtilizationAvgMetric] * float64(cfg.PCPUs)
				if busy > used+1e-9 {
					return false
				}
				for vm := range cfg.VMs {
					for s := 0; s < cfg.VMs[vm].VCPUs; s++ {
						if m[core.VCPUUtilizationMetric(vm, s)] > m[core.AvailabilityMetric(vm, s)]+1e-9 {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickEngineParity fuzzes configurations and seeds, requiring the two
// engines to agree bit for bit on every per-entity metric and within
// enginetest's ulp bound on the fleet averages.
func TestQuickEngineParity(t *testing.T) {
	factorySet := factories()
	order := []string{"RRS", "SCS", "RCS", "Balance", "Credit"}
	i := 0
	d := enginetest.New(t)
	f := func(pcpus, vms, seed uint64) bool {
		cfg := randomConfig(pcpus, vms, seed)
		name := order[i%len(order)]
		i++
		factory := factorySet[name]
		fast, err := RunReplication(cfg, factory, 400, seed)
		if err != nil {
			t.Logf("%s fast: %v", name, err)
			return false
		}
		san, err := core.RunReplication(cfg, factory, 400, seed)
		if err != nil {
			t.Logf("%s san: %v", name, err)
			return false
		}
		return d.Compare(fmt.Sprintf("%s cfg=%+v", name, cfg), fast, san)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSCSAllOrNothing asserts the strict co-scheduling invariant on
// random configurations: at every tick, each VM's VCPUs are either all
// ACTIVE or all INACTIVE.
func TestQuickSCSAllOrNothing(t *testing.T) {
	f := func(pcpus, vms, seed uint64) bool {
		cfg := randomConfig(pcpus, vms, seed)
		violated := false
		factory := func() core.Scheduler {
			return &gangChecker{inner: sched.NewStrictCo(cfg.Timeslice), violated: &violated}
		}
		if _, err := RunReplication(cfg, factory, 500, seed); err != nil {
			return false
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// gangChecker wraps a scheduler and verifies the gang invariant on the
// views it receives each tick.
type gangChecker struct {
	inner    core.Scheduler
	violated *bool
}

func (g *gangChecker) Name() string { return g.inner.Name() }

func (g *gangChecker) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	for _, gang := range core.SiblingsOf(vcpus) {
		active := 0
		for _, id := range gang {
			if vcpus[id].Status.Active() {
				active++
			}
		}
		if active != 0 && active != len(gang) {
			*g.violated = true
		}
	}
	g.inner.Schedule(now, vcpus, pcpus, acts)
}
