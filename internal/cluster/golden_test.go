package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
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

// policiesGoldenPath holds, per placement policy and seed, the fleet
// metrics of policiesTopology as exact hex floats and the ordered
// dispatch/migrate span sequence, keyed "<policy>/seed<N>".
var policiesGoldenPath = filepath.Join("testdata", "policies_golden.json")

// policiesTopology is a 40-host mixed fleet that puts every placement
// policy through its choices: 2- and 4-PCPU hosts interleaved in ID
// order, 1-, 2- and 4-VCPU slots, arrival waves of every width (some
// queue), and armed migration. Utilization is a count of assigned PCPUs
// over 2 or 4, so many hosts sit at the same fraction when a check ranks
// targets and ties must fall to the lowest ID.
func policiesTopology(t *testing.T, placement string) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "uniform", Low: 1, High: 8}
	duo := func(name string) HostGroup {
		return HostGroup{
			Name: name, Count: 10, PCPUs: 2, Timeslice: 10,
			Scheduler: config.Scheduler{Name: "RRS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 4}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load}},
				{VM: config.VM{VCPUs: 2, Load: load}},
			},
		}
	}
	quad := func(name string) HostGroup {
		return HostGroup{
			Name: name, Count: 10, PCPUs: 4, Timeslice: 20,
			Scheduler: config.Scheduler{Name: "SCS"},
			Slots: []Slot{
				{VM: config.VM{VCPUs: 1, Load: load}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load}, Count: 2},
				{VM: config.VM{VCPUs: 2, Load: load}},
				{VM: config.VM{VCPUs: 4, Load: load, SyncEveryN: 4}},
			},
		}
	}
	topo := &Topology{
		Horizon:   500,
		Warmup:    50,
		Placement: placement,
		Hosts:     []HostGroup{duo("duoa"), quad("quada"), duo("duob"), quad("quadb")},
		Arrivals: []Arrival{
			{At: 30, Count: 8, VCPUs: 4},
			{At: 40, Count: 40, VCPUs: 2},
			{At: 80, Count: 30, VCPUs: 1},
			{At: 150, Count: 20, VCPUs: 1},
			{At: 300, Count: 10, VCPUs: 1},
		},
		Migration: &Migration{CheckEvery: 25, HighUtil: 0.9, LowUtil: 0.6, TransferDelay: 10},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatalf("policies topology invalid: %v", err)
	}
	return topo
}

// spanRecorder renders every dispatch and migrate span, in emission
// order, as one line with exact hex floats.
type spanRecorder struct{ lines []string }

func (r *spanRecorder) Emit(e obs.Event) {
	a, _ := e.Attrs.(map[string]any)
	hex := func(k string) string { return strconv.FormatFloat(a[k].(float64), 'x', -1, 64) }
	switch e.Kind {
	case obs.KindDispatch:
		r.lines = append(r.lines, fmt.Sprintf("dispatch t=%s host=%v vcpus=%v wait=%s",
			hex("t"), a["host"], a["vcpus"], hex("wait")))
	case obs.KindMigrate:
		r.lines = append(r.lines, fmt.Sprintf("migrate t=%s from=%v to=%v vcpus=%v downtime=%s",
			hex("t"), a["from"], a["to"], a["vcpus"], hex("downtime")))
	}
}

// policyRun is one policy's replication at one seed: its fleet metrics
// and its placement and migration decisions in order.
type policyRun struct {
	Fleet map[string]string `json:"fleet"`
	Spans []string          `json:"spans"`
}

func runPoliciesGolden(t *testing.T) map[string]policyRun {
	t.Helper()
	out := map[string]policyRun{}
	for _, policy := range PlacementPolicies() {
		o, err := New(policiesTopology(t, policy))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 9} {
			rec := &spanRecorder{}
			o.SetSink(rec)
			m, err := o.Replicate(context.Background(), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			out[fmt.Sprintf("%s/seed%d", policy, seed)] = policyRun{Fleet: hexMap(m), Spans: rec.lines}
		}
	}
	return out
}

// TestPoliciesGolden pins every placement policy's decisions on a mixed
// fleet byte for byte: which host each arrival lands on and when, which
// host each migration leaves and enters, and the resulting fleet
// metrics, at two seeds. TestMultiHostGolden covers least-loaded only.
func TestPoliciesGolden(t *testing.T) {
	got := runPoliciesGolden(t)
	if *updateMultiHost {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policiesGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", policiesGoldenPath)
		return
	}
	buf, err := os.ReadFile(policiesGoldenPath)
	if err != nil {
		t.Fatalf("reading policies golden fixture: %v", err)
	}
	var want map[string]policyRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, fixture has %d", len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		for name, hex := range w.Fleet {
			if g.Fleet[name] != hex {
				t.Errorf("%s: %s = %s, want %s", key, name, g.Fleet[name], hex)
			}
		}
		if len(g.Fleet) != len(w.Fleet) {
			t.Errorf("%s: %d fleet metrics, fixture has %d", key, len(g.Fleet), len(w.Fleet))
		}
		for i := 0; i < len(w.Spans) || i < len(g.Spans); i++ {
			var gs, ws string
			if i < len(g.Spans) {
				gs = g.Spans[i]
			}
			if i < len(w.Spans) {
				ws = w.Spans[i]
			}
			if gs != ws {
				t.Errorf("%s: span %d = %q, want %q", key, i, gs, ws)
				break
			}
		}
		// The fixture must keep exercising placement, queueing and
		// migration under every policy.
		for _, name := range []string{DispatchesMetric, MigrationsMetric, PlaceWaitMetric} {
			if w.Fleet[name] == "0x0p+00" {
				t.Errorf("%s: %s is zero; the policies topology no longer exercises it", key, name)
			}
		}
	}
}
