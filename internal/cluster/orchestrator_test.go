package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vcpusim/internal/config"
)

// fig8Topology is the paper's Figure 8 setup as a 1-host cluster: the
// degenerate case that must reproduce the single-host executive.
func fig8Topology(t *testing.T) *Topology {
	t.Helper()
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon: 5000,
		Seed:    1,
		Hosts: []HostGroup{{
			PCPUs:     2,
			Timeslice: 30,
			Scheduler: config.Scheduler{Name: "RRS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: uniform, SyncEveryN: 5}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: uniform, SyncEveryN: 5}, Count: 2, Admitted: true},
			},
		}},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("fig8 topology invalid: %v", err)
	}
	return topo
}

// hexMap renders a metric map as name -> exact hex float for bit-level
// comparison.
func hexMap(m map[string]float64) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = strconv.FormatFloat(v, 'x', -1, 64)
	}
	return out
}

// TestDegenerateSingleHostMatchesGolden is the cluster's anchor to the
// frozen single-host contract: a 1-host orchestrator whose slots are all
// admitted from t=0 (pass-through placement, no cluster events) must
// reproduce the existing golden fixture byte for byte — same seed
// derivation, same trajectory, same reward bits.
func TestDegenerateSingleHostMatchesGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_determinism.json"))
	if err != nil {
		t.Fatalf("reading single-host golden fixture: %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden["fig8/RRS/seed1"]
	if !ok {
		t.Fatal("golden fixture has no fig8/RRS/seed1 entry")
	}

	o, err := New(fig8Topology(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Replicate(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	got := hexMap(o.HostMetrics(0))
	if len(got) != len(want) {
		t.Errorf("host 0 metric count %d, want %d", len(got), len(want))
	}
	for name, wantHex := range want {
		if got[name] != wantHex {
			t.Errorf("metric %s = %s, want %s (degenerate 1-host cluster diverged from the single-host executive)",
				name, got[name], wantHex)
		}
	}
}

// TestReplicateDeterministic pins the orchestrator's own reproducibility:
// same topology, same seed, two fresh orchestrators — identical fleet
// metrics bit for bit, and a different seed must actually change them.
func TestReplicateDeterministic(t *testing.T) {
	topo := multiHostTopology(t, 3)
	run := func(seed uint64) (map[string]string, map[string]string) {
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		m, err := o.Replicate(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return hexMap(m), hexMap(o.HostMetrics(0))
	}
	a, ha := run(11)
	b, hb := run(11)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(ha) != fmt.Sprint(hb) {
		t.Fatalf("same-seed cluster replications diverged:\n%v\n%v", a, b)
	}
	// A different seed must change the trajectory. The fleet means can
	// saturate to constants, so the seed sensitivity is asserted on host
	// 0's job throughput.
	_, hc := run(12)
	if fmt.Sprint(ha) == fmt.Sprint(hc) {
		t.Fatal("different seeds produced identical host-0 metrics")
	}
}

// multiHostTopology builds n small hosts with arrivals that must queue
// and then place as capacity is provisioned, exercising dispatch.
func multiHostTopology(t *testing.T, n int) *Topology {
	t.Helper()
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 6}
	topo := &Topology{
		Horizon:   600,
		Seed:      1,
		Placement: "round-robin",
		Hosts: []HostGroup{{
			Count:     n,
			PCPUs:     2,
			Timeslice: 10,
			Scheduler: config.Scheduler{Name: "RRS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: uniform}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: uniform}, Count: 2},
			},
		}},
		Arrivals: []Arrival{
			{At: 50, Count: n, VCPUs: 1},
			{At: 100, Count: 2 * n, VCPUs: 1},
		},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology invalid: %v", err)
	}
	return topo
}

// TestDispatchAndQueue checks arrival routing: the first batch fits (one
// free 1-wide slot per host), the second exceeds capacity and queues.
func TestDispatchAndQueue(t *testing.T) {
	topo := multiHostTopology(t, 3)
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// 6 free 1-wide slots total, 9 arrivals: 6 placed, 3 queued at end.
	if got := m[DispatchesMetric]; got != 6 {
		t.Errorf("dispatches = %g, want 6", got)
	}
	if got := m[QueuedAtEndMetric]; got != 3 {
		t.Errorf("queued = %g, want 3", got)
	}
	if m[FleetAvailMetric] <= 0 || m[FleetAvailMetric] > 1 {
		t.Errorf("fleet availability %g outside (0, 1]", m[FleetAvailMetric])
	}
}

// TestMigrationLifecycle drives a deliberately skewed 2-host cluster —
// one saturated host, one empty — through the drain / transfer-delay /
// re-admit protocol and checks the accounting.
func TestMigrationLifecycle(t *testing.T) {
	topo := migrationTopology(t)
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m[MigrationsMetric] < 1 {
		t.Fatalf("expected at least one migration off the saturated host, got %g", m[MigrationsMetric])
	}
	// Downtime includes the transfer delay for every migration.
	if min := m[MigrationsMetric] * 25; m[DowntimeMetric] < min {
		t.Errorf("downtime %g below the transfer-delay floor %g", m[DowntimeMetric], min)
	}
	// The run stays deterministic under migration.
	o2, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := o2.Replicate(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hexMap(m)) != fmt.Sprint(hexMap(m2)) {
		t.Fatal("migration run not reproducible")
	}
}

// TestPlacementPolicies pins each policy's routing on a hand-built
// snapshot.
func TestPlacementPolicies(t *testing.T) {
	hosts := []HostLoad{
		{ID: 0, PCPUs: 4, AdmittedVCPUs: 4, MaxFree: 1},
		{ID: 1, PCPUs: 4, AdmittedVCPUs: 1, MaxFree: 1},
		{ID: 2, PCPUs: 4, AdmittedVCPUs: 0, MaxFree: 0},
		{ID: 3, PCPUs: 4, AdmittedVCPUs: 2, MaxFree: 1},
	}
	ll, _ := policyFor("least-loaded")
	if got := ll.Place(1, hosts); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}
	ff, _ := policyFor("first-fit")
	if got := ff.Place(1, hosts); got != 0 {
		t.Errorf("first-fit picked %d, want 0", got)
	}
	rr, _ := policyFor("ROUND-ROBIN") // case-insensitive
	if got := rr.Place(1, hosts); got != 0 {
		t.Errorf("round-robin first pick %d, want 0", got)
	}
	if got := rr.Place(1, hosts); got != 1 {
		t.Errorf("round-robin second pick %d, want 1", got)
	}
	if got := rr.Place(1, hosts); got != 3 {
		t.Errorf("round-robin third pick %d, want 3 (2 does not fit)", got)
	}
	if _, err := policyFor("best-effort"); err == nil {
		t.Error("unknown policy accepted")
	}
	none := []HostLoad{{ID: 0, MaxFree: 0}}
	for _, p := range []PlacementPolicy{ll, ff, rr} {
		if got := p.Place(1, none); got != -1 {
			t.Errorf("%s placed on a full cluster: %d", p.Name(), got)
		}
	}
}

// TestParseTopology covers the strict-decode contract: defaults, the
// bare-array form, unknown-field rejection, and validation errors.
func TestParseTopology(t *testing.T) {
	obj := `{
		"name": "t",
		"hosts": [{"pcpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 1, "high": 5}, "admitted": true}]}]
	}`
	topo, err := ParseTopology(strings.NewReader(obj))
	if err != nil {
		t.Fatalf("object form: %v", err)
	}
	if topo.Horizon != 20000 || topo.Seed != 1 || topo.Placement != "round-robin" {
		t.Errorf("defaults not applied: %+v", topo)
	}
	if topo.Hosts[0].Count != 1 || topo.Hosts[0].Timeslice != 30 || topo.Hosts[0].Scheduler.Name != "RRS" {
		t.Errorf("host defaults not applied: %+v", topo.Hosts[0])
	}
	if topo.NumHosts() != 1 || topo.TotalVCPUs() != 1 {
		t.Errorf("NumHosts/TotalVCPUs = %d/%d, want 1/1", topo.NumHosts(), topo.TotalVCPUs())
	}

	bare := `[{"pcpus": 2, "count": 3, "slots": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 4}}]}]`
	topo, err = ParseTopology(strings.NewReader(bare))
	if err != nil {
		t.Fatalf("bare array form: %v", err)
	}
	if topo.NumHosts() != 3 || topo.TotalVCPUs() != 6 {
		t.Errorf("bare form NumHosts/TotalVCPUs = %d/%d, want 3/6", topo.NumHosts(), topo.TotalVCPUs())
	}

	for name, bad := range map[string]string{
		"unknown field":      `{"hosts": [], "surprise": 1}`,
		"unknown host field": `{"hosts": [{"pcpus": 1, "cpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"no hosts":           `{"hosts": []}`,
		"no slots":           `{"hosts": [{"pcpus": 1, "slots": []}]}`,
		"bad placement":      `{"placement": "psychic", "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"bad contract":       `{"contract": 9, "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"removed contract":   `{"contract": 2, "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"pcpus above limit":  `{"hosts": [{"pcpus": 65, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"huge pcpus":         `{"hosts": [{"pcpus": 100000000000000000, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}]}`,
		"arrival too wide":   `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "arrivals": [{"at": 1, "vcpus": 9}]}`,
		"arrival past end":   `{"horizon": 100, "hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "arrivals": [{"at": 100, "vcpus": 1}]}`,
		"bad thresholds":     `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 1}}]}], "migration": {"checkEvery": 10, "highUtil": 0.3, "lowUtil": 0.6, "transferDelay": 1}}`,
		"bad workload":       `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 5, "high": 1}}]}]}`,
		"too many vcpus":     `{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 4, "count": 8, "load": {"dist": "deterministic", "value": 1}}]}]}`,
	} {
		if _, err := ParseTopology(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHostSeedDerivation pins the seed spread: host 0 inherits the
// replication seed unchanged (the degenerate-identity requirement) and
// other hosts get distinct streams.
func TestHostSeedDerivation(t *testing.T) {
	if hostSeed(42, 0) != 42 {
		t.Fatalf("hostSeed(42, 0) = %d, want 42", hostSeed(42, 0))
	}
	seen := map[uint64]bool{}
	for h := 0; h < 100; h++ {
		s := hostSeed(42, h)
		if seen[s] {
			t.Fatalf("duplicate host seed at host %d", h)
		}
		seen[s] = true
	}
}

// migrationTopology is a deliberately skewed 2-host cluster: one
// saturated host and one empty one that fits its VMs.
func migrationTopology(t *testing.T) *Topology {
	t.Helper()
	uniform := config.Distribution{Dist: "uniform", Low: 1, High: 6}
	topo := &Topology{
		Horizon:   2000,
		Seed:      1,
		Placement: "first-fit",
		Hosts: []HostGroup{
			{
				Name: "hot", PCPUs: 1, Timeslice: 10,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: uniform}, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: uniform}, Admitted: true},
				},
			},
			{
				Name: "cold", PCPUs: 2, Timeslice: 10,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: uniform}, Count: 2},
				},
			},
		},
		Migration: &Migration{CheckEvery: 100, HighUtil: 0.9, LowUtil: 0.5, TransferDelay: 25},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}
