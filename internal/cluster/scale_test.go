package cluster

import (
	"context"
	"testing"

	"vcpusim/internal/config"
)

// TestThousandHostSmoke drives the orchestrator at fleet scale: 1000
// hosts × 16 provisioned VCPUs (16k VCPUs, half resident at t=0), a
// 2000-VM arrival burst, and armed migration thresholds, over a short
// horizon. It is a liveness and accounting check — the windowed host
// stepping and the placement queue must hold together at three orders of
// magnitude more hosts than the golden fixtures — and it runs under the
// race detector in CI.
func TestThousandHostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host smoke in -short mode")
	}
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon:   20,
		Placement: "round-robin",
		Hosts: []HostGroup{{
			Name:  "rack",
			Count: 1000,
			PCPUs: 4,
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Count: 4, Admitted: true},
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Count: 4},
			},
		}},
		Arrivals:  []Arrival{{At: 5, Count: 2000, VCPUs: 2}},
		Migration: &Migration{CheckEvery: 8, HighUtil: 0.85, LowUtil: 0.5, TransferDelay: 4},
	}
	checkSmoke(t, topo, 1000, 16000, 2000)
}

// TestTenThousandHostSmoke is the same accounting check at ten times the
// hosts and burst: 10,000 hosts, a 20,000-VM burst, armed migration. Each
// host is lighter (2 PCPUs, four 1-VCPU slots, two resident) so the run
// stays within a CI runner's memory under the race detector, where every
// compiled host costs several times its plain size.
func TestTenThousandHostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-host smoke in -short mode")
	}
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon:   20,
		Placement: "round-robin",
		Hosts: []HostGroup{{
			Name:  "rack",
			Count: 10000,
			PCPUs: 2,
			Slots: []Slot{
				{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 2, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 2},
			},
		}},
		Arrivals:  []Arrival{{At: 5, Count: 20000, VCPUs: 1}},
		Migration: &Migration{CheckEvery: 8, HighUtil: 0.85, LowUtil: 0.5, TransferDelay: 4},
	}
	checkSmoke(t, topo, 10000, 40000, 20000)
}

// checkSmoke replicates a fleet-scale topology once and checks its
// accounting: the topology expands to the expected hosts and VCPUs, every
// burst VM is dispatched (the burst fits the parked slots), the queue
// drains, availability is a fraction, and the counter rollup agrees.
func checkSmoke(t *testing.T, topo *Topology, hosts, vcpus, burst int) {
	t.Helper()
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := topo.NumHosts(); n != hosts {
		t.Fatalf("NumHosts = %d, want %d", n, hosts)
	}
	if v := topo.TotalVCPUs(); v != vcpus {
		t.Fatalf("TotalVCPUs = %d, want %d", v, vcpus)
	}
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[DispatchesMetric]; got != float64(burst) {
		t.Errorf("dispatches = %g, want %d (every burst VM fits a parked slot)", got, burst)
	}
	if a := m[FleetAvailMetric]; !(0 < a && a <= 1) {
		t.Errorf("fleet availability %g outside (0, 1]", a)
	}
	if q := m[QueuedAtEndMetric]; q != 0 {
		t.Errorf("placement queue not drained: %g VMs left", q)
	}
	st := o.LastStats()
	if st.Events == 0 {
		t.Error("fleet processed no events")
	}
	if st.Dispatches != uint64(burst) {
		t.Errorf("counter rollup dispatches = %d, want %d", st.Dispatches, burst)
	}
}
