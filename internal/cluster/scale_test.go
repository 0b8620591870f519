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
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := topo.NumHosts(); n != 1000 {
		t.Fatalf("NumHosts = %d, want 1000", n)
	}
	if v := topo.TotalVCPUs(); v != 16000 {
		t.Fatalf("TotalVCPUs = %d, want 16000", v)
	}
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[DispatchesMetric]; got != 2000 {
		t.Errorf("dispatches = %g, want 2000 (every burst VM fits a parked slot)", got)
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
	if st.Dispatches != 2000 {
		t.Errorf("counter rollup dispatches = %d, want 2000", st.Dispatches)
	}
}
