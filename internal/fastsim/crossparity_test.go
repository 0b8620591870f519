package fastsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"vcpusim/internal/core"
	"vcpusim/internal/enginetest"
	"vcpusim/internal/rng"
	"vcpusim/internal/workload"
)

// spinlockConfig derives a random-but-valid system whose VMs synchronize
// through spinlocks instead of barriers — the workload mode the original
// engine-parity fuzz never covered. Lock-holder preemption makes the
// spinlock path the most scheduler-sensitive one, so it is where an
// executor-optimization bug would surface first.
func spinlockConfig(pcpus, vms, seed uint64) core.SystemConfig {
	cfg := randomConfig(pcpus, vms, seed)
	src := rng.New(seed ^ 0xa5a5a5a5)
	for i := range cfg.VMs {
		cfg.VMs[i].Workload.SyncKind = workload.SyncSpinlock
		if cfg.VMs[i].Workload.SyncEveryN == 0 {
			// Spinlocks only matter if sync points actually occur.
			cfg.VMs[i].Workload.SyncEveryN = src.Intn(4) + 2
		}
	}
	return cfg
}

// TestQuickSpinlockEngineParity fuzzes spinlock-synchronized systems
// through every scheduler and requires the SAN engine and the fast engine
// to agree bit-for-bit on every per-entity metric. Fleet-average metrics
// get enginetest's ulp bound instead: the engines sum per-entity values
// in different orders, which legitimately perturbs the last bits. The SAN
// side runs through the compiled executor (dependency graph, fused
// chains, arena markings), so this doubles as a cross-engine check that
// compilation did not change a single trajectory.
func TestQuickSpinlockEngineParity(t *testing.T) {
	factorySet := factories()
	order := []string{"RRS", "SCS", "RCS", "Balance", "Credit"}
	i := 0
	d := enginetest.New(t)
	f := func(pcpus, vms, seed uint64) bool {
		cfg := spinlockConfig(pcpus, vms, seed)
		name := order[i%len(order)]
		i++
		factory := factorySet[name]
		fast, err := RunReplication(cfg, factory, 400, seed)
		if err != nil {
			t.Logf("%s fast: %v", name, err)
			return false
		}
		ref, err := core.RunReplication(cfg, factory, 400, seed)
		if err != nil {
			t.Logf("%s san: %v", name, err)
			return false
		}
		return d.Compare(fmt.Sprintf("%s cfg=%+v", name, cfg), fast, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
