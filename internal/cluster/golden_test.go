package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
)

var updateMultiHost = flag.Bool("update", false, "rewrite the multi-host golden fixture from the current orchestrator")

// multiHostGoldenPath holds the fleet and per-host metrics of
// goldenTopology as exact hex floats, keyed "seed<N>/fleet" and
// "seed<N>/<host name>".
var multiHostGoldenPath = filepath.Join("testdata", "multihost_golden.json")

// goldenTopology is six hosts in two groups that together exercise every
// cluster event path. The "hot" group runs a PCPU fault campaign and is
// overloaded from t=0, so the first check drains a wide VM off each hot
// host and reserves the cold hosts' wide slots for them. The wide
// arrivals at t=60 then find no free slot and queue until evictions,
// run through Exec at later checks, free the hot hosts' wide slots.
// Checks, admissions and arrivals land on integer times, where every
// host's Clock fires too, so cluster events tie with host events.
func goldenTopology(t *testing.T) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "uniform", Low: 1, High: 8}
	topo := &Topology{
		Horizon:   1500,
		Warmup:    100,
		Placement: "least-loaded",
		Hosts: []HostGroup{
			{
				Name: "hot", Count: 3, PCPUs: 2, Timeslice: 10,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 4}, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: load}, Count: 2, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: load}},
				},
				Faults: &faults.Plan{Faults: []faults.Spec{{
					Name: "crash", Kind: faults.KindPCPUCrash, PCPU: 1,
					Every:    &faults.Dist{Dist: "exponential", Rate: 0.004},
					Duration: &faults.Dist{Dist: "uniform", Low: 20, High: 60},
					Count:    3,
				}}},
			},
			{
				Name: "cold", Count: 3, PCPUs: 4, Timeslice: 20,
				Scheduler: config.Scheduler{Name: "SCS"},
				Slots: []Slot{
					{VM: config.VM{VCPUs: 1, Load: load}, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: load}, Count: 2},
					{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 4}},
				},
			},
		},
		Arrivals: []Arrival{
			{At: 60, Count: 3, VCPUs: 2},
			{At: 300, Count: 6, VCPUs: 1},
			{At: 600, Count: 4, VCPUs: 1},
		},
		Migration: &Migration{CheckEvery: 50, HighUtil: 0.9, LowUtil: 0.8, TransferDelay: 20},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("golden topology invalid: %v", err)
	}
	return topo
}

// runMultiHostGolden replicates goldenTopology at each golden seed and
// renders the fleet map and every host's map as hex floats.
func runMultiHostGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	o, err := New(goldenTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{}
	for _, seed := range []uint64{1, 9} {
		m, err := o.Replicate(context.Background(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out[fmt.Sprintf("seed%d/fleet", seed)] = hexMap(m)
		for h, hs := range o.hosts {
			out[fmt.Sprintf("seed%d/%s", seed, hs.name)] = hexMap(o.HostMetrics(h))
		}
	}
	return out
}

// TestMultiHostGolden pins a multi-host trajectory byte for byte: fleet
// and per-host metrics of a six-host cluster with faults, queued
// arrivals, migrations and same-time cluster/host events, at two seeds.
// Any change to the cluster's event order, placement, migration protocol
// or per-host seeding shows up here.
func TestMultiHostGolden(t *testing.T) {
	got := runMultiHostGolden(t)
	if *updateMultiHost {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(multiHostGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", multiHostGoldenPath)
		return
	}
	buf, err := os.ReadFile(multiHostGoldenPath)
	if err != nil {
		t.Fatalf("reading multi-host golden fixture: %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d metric maps, fixture has %d", len(got), len(want))
	}
	for key, wm := range want {
		gm := got[key]
		if len(gm) != len(wm) {
			t.Errorf("%s: %d metrics, fixture has %d", key, len(gm), len(wm))
		}
		for name, hex := range wm {
			if gm[name] != hex {
				t.Errorf("%s: %s = %s, want %s", key, name, gm[name], hex)
			}
		}
	}
	// The fixture must keep exercising what the topology claims to.
	for _, seed := range []int{1, 9} {
		fleet := want[fmt.Sprintf("seed%d/fleet", seed)]
		for _, name := range []string{MigrationsMetric, PlaceWaitMetric} {
			if fleet[name] == "0x0p+00" {
				t.Errorf("seed %d: %s is zero; the golden topology no longer exercises it", seed, name)
			}
		}
	}
}
