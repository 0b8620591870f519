package experiments

import (
	"context"
	"fmt"

	"vcpusim/internal/cluster"
	"vcpusim/internal/config"
	"vcpusim/internal/obs"
	"vcpusim/internal/report"
	"vcpusim/internal/san"
	"vcpusim/internal/sim"
)

// clusterHostCounts are the figure's fleet sizes (table row groups).
var clusterHostCounts = []int{2, 4, 8}

// clusterRowMetrics maps the cluster figure's row labels to the
// fleet-level metric summarized in that row.
var clusterRowMetrics = []struct {
	label  string
	metric string
}{
	{"fleet availability", cluster.FleetAvailMetric},
	{"fleet PCPU util", cluster.FleetPUtilMetric},
	{"dispatches", cluster.DispatchesMetric},
	{"migrations", cluster.MigrationsMetric},
	{"migration downtime (ticks)", cluster.DowntimeMetric},
	{"placement wait (ticks)", cluster.PlaceWaitMetric},
	{"queued at horizon", cluster.QueuedAtEndMetric},
}

// clusterTopology builds the figure's heterogeneous fleet: half the
// hosts are "busy" 2-PCPU machines saturated by a resident 2-VCPU VM
// (plus one parked 1-VCPU slot), half are "idle" 4-PCPU machines that
// are all parked capacity (one 2-VCPU and two 1-VCPU slots). Three
// arrival waves dispatch 1-VCPU VMs; the waves oversubscribe the parked
// 1-VCPU capacity, so where a policy routes them shows up in fleet
// utilization, and the tail queues until migration frees a busy host's
// wide slot. The migration thresholds drain the resident 2-VCPU VMs
// (whose hosts sit at assignment fraction ~1) toward idle hosts'
// 2-VCPU slots, so migration count, downtime, and placement wait are
// all exercised.
func (p Params) clusterTopology(hosts int, policy string) *cluster.Topology {
	h := float64(p.Horizon)
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	busy := hosts / 2
	if busy == 0 {
		busy = 1
	}
	return &cluster.Topology{
		Name:      fmt.Sprintf("%d hosts, %s", hosts, policy),
		Contract:  san.DefaultContract,
		Horizon:   h,
		Warmup:    float64(p.Warmup),
		Placement: policy,
		Seed:      p.Seed,
		Hosts: []cluster.HostGroup{
			{
				Name:      "busy",
				Count:     busy,
				PCPUs:     2,
				Timeslice: p.Timeslice,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []cluster.Slot{
					{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Count: 1, Admitted: true},
					{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 1},
				},
			},
			{
				Name:      "idle",
				Count:     hosts - busy,
				PCPUs:     4,
				Timeslice: p.Timeslice,
				Scheduler: config.Scheduler{Name: "RRS"},
				Slots: []cluster.Slot{
					{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Count: 1},
					{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 2},
				},
			},
		},
		Arrivals: []cluster.Arrival{
			{At: 0.05 * h, Count: hosts, VCPUs: 1},
			{At: 0.35 * h, Count: hosts, VCPUs: 1},
			{At: 0.65 * h, Count: hosts, VCPUs: 1},
		},
		Migration: &cluster.Migration{
			CheckEvery:    h / 40,
			HighUtil:      0.85,
			LowUtil:       0.6,
			TransferDelay: h / 100,
		},
	}
}

// clusterFactory is topo.ReplicatorFactory with each replication's
// fleet counters recorded in log, when non-nil, by replication index —
// ReplicatorFactory's shared accumulator cannot tell the kept
// replications from those the pool discards.
func clusterFactory(topo *cluster.Topology, sink obs.Sink, log *cellLog) sim.ReplicatorFactory {
	return func() (sim.Replicator, error) {
		o, err := cluster.New(topo)
		if err != nil {
			return nil, err
		}
		o.SetSink(sink)
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			m, err := o.Replicate(ctx, seed)
			if err == nil && log != nil {
				log.counters[rep] = o.LastStats()
			}
			return m, err
		}, nil
	}
}

// FigureCluster runs the cluster-orchestration campaign: fleets of 2, 4,
// and 8 two-PCPU hosts under one global clock, each evaluated under
// every placement policy. Rows are fleet size × metric (fleet
// availability and PCPU utilization, dispatch and migration counts,
// migration downtime, placement wait, end-of-run queue depth); columns
// are the placement policies. Results are byte-identical at any
// Sim.Parallelism: every cell's replications derive from Seed alone and
// fold in replication order. The orchestrator always runs on the SAN step
// primitives, so the Engine parameter does not apply here.
func FigureCluster(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	policies := cluster.PlacementPolicies()

	var rows []string
	for _, n := range clusterHostCounts {
		for _, rm := range clusterRowMetrics {
			rows = append(rows, fmt.Sprintf("%d hosts: %s", n, rm.label))
		}
	}
	t := report.NewTable(
		"Cluster: shared-clock multi-host orchestration, busy 2-PCPU + idle 4-PCPU hosts, 1-VCPU arrival waves, 95% CI",
		"fleet", rows, policies)

	// One grid cell per (fleet size, policy); each fills all of its fleet
	// size's rows from the same summary.
	var cells []cell
	for _, n := range clusterHostCounts {
		for _, pol := range policies {
			cells = append(cells, cell{name: fmt.Sprintf("cluster %dh %s", n, pol), topo: p.clusterTopology(n, pol)})
		}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, n := range clusterHostCounts {
		for j, pol := range policies {
			sum := sums[i*len(policies)+j]
			for _, rm := range clusterRowMetrics {
				iv, ok := sum.Metric(rm.metric)
				if !ok {
					return nil, fmt.Errorf("experiments: cluster %d hosts/%s: missing metric %s", n, pol, rm.metric)
				}
				t.Set(fmt.Sprintf("%d hosts: %s", n, rm.label), pol, iv)
			}
		}
	}
	t.AddNote("every fleet runs on the SAN step-primitive orchestrator; arrivals come in three waves (the third oversubscribes the fleet), and migrations drain the resident 2-VCPU VMs off saturated hosts once threshold checks find an underloaded target")
	return t, nil
}
