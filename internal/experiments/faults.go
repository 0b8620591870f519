package experiments

import (
	"context"
	"fmt"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/report"
	"vcpusim/internal/workload"
)

// faultScenario is one row-group of the faults campaign: a named fault
// plan evaluated under every algorithm. spinlock switches the workload's
// synchronization to the spinlock kind, so a stalled VCPU becomes a lock
// holder its siblings spin on (the lock-holder-preemption storm).
type faultScenario struct {
	key      string
	plan     *faults.Plan
	spinlock bool
}

// fdist is a literal-friendly *faults.Dist constructor.
func fdist(d faults.Dist) *faults.Dist { return &d }

// faultScenarios builds the campaign's four scenarios on the Figure 8
// system. Injection times and durations scale with the horizon so -quick
// runs exercise the same shapes.
func (p Params) faultScenarios() []faultScenario {
	h := float64(p.Horizon)
	return []faultScenario{
		{key: "crash", plan: &faults.Plan{Faults: []faults.Spec{{
			Name:     "crash1",
			Kind:     faults.KindPCPUCrash,
			PCPU:     1,
			At:       0.3 * h,
			Duration: fdist(faults.Dist{Dist: "deterministic", Value: 0.2 * h}),
		}}}},
		{key: "throttle", plan: &faults.Plan{Faults: []faults.Spec{{
			Name:     "slow0",
			Kind:     faults.KindPCPUSlow,
			PCPU:     0,
			Factor:   0.5,
			At:       0.25 * h,
			Duration: fdist(faults.Dist{Dist: "deterministic", Value: 0.5 * h}),
		}}}},
		{key: "stall-storm", spinlock: true, plan: &faults.Plan{Faults: []faults.Spec{{
			Name:     "storm",
			Kind:     faults.KindVCPUStall,
			VCPU:     0,
			Every:    fdist(faults.Dist{Dist: "exponential", Rate: 8 / h}),
			Duration: fdist(faults.Dist{Dist: "uniform", Low: 0.01 * h, High: 0.05 * h}),
			Count:    5,
		}}}},
		{key: "misdecision", plan: &faults.Plan{Faults: []faults.Spec{{
			Name:     "mis1",
			Kind:     faults.KindMisdecision,
			At:       0.4 * h,
			Duration: fdist(faults.Dist{Dist: "deterministic", Value: 0.05 * h}),
		}}}},
	}
}

// faultRowMetrics maps the campaign's row labels to the per-replication
// metric summarized in that row.
var faultRowMetrics = []struct {
	label  string
	metric string
}{
	{"availability", core.AvailabilityAvgMetric},
	{"avail under fault", faults.AvailUnderFaultsMetric},
	{"capacity", faults.CapacityMetric},
	{"spin fraction", core.SpinFractionMetric},
	{"recovery (MTTR ticks)", faults.MTTRMetric},
	{"work lost (ticks)", faults.WorkLostMetric},
	{"wait p50 (ticks)", core.HistMetric(core.WaitHist, "p50")},
	{"wait p95 (ticks)", core.HistMetric(core.WaitHist, "p95")},
	{"wait p99 (ticks)", core.HistMetric(core.WaitHist, "p99")},
}

// FigureFaults runs the dependability campaign: four fault scenarios
// (PCPU crash + restart, PCPU throttle, VCPU stall storm, transient
// scheduler misdecision) injected into the Figure 8 system (2 PCPUs),
// each evaluated under every algorithm. Rows are scenario × metric
// (overall availability, availability while degraded, mean recovery time
// after PCPU restart, work lost to co-schedule aborts, and the wait-time
// distribution's p50/p95/p99 from the reward histograms); columns are
// the algorithms. Fault campaigns require the SAN engine; the engine
// parameter is overridden accordingly.
func FigureFaults(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	p.Engine = EngineSAN // fault plans perturb the SAN executive
	p.Histograms = true  // wait-time quantile rows come from the reward histograms
	scenarios := p.faultScenarios()

	var rows []string
	for _, sc := range scenarios {
		for _, rm := range faultRowMetrics {
			rows = append(rows, sc.key+": "+rm.label)
		}
	}
	t := report.NewTable(
		"Faults: dependability under injected faults, 3 VMs (2+1+1 VCPUs), 2 PCPUs, sync 1:5, 95% CI",
		"scenario", rows, p.Algorithms)

	// One grid cell per (scenario, algorithm); each fills all of its
	// scenario's rows from the same summary.
	var cells []cell
	for _, sc := range scenarios {
		cfg := p.fig8Config(2)
		if sc.spinlock {
			for i := range cfg.VMs {
				cfg.VMs[i].Workload.SyncKind = workload.SyncSpinlock
			}
		}
		cfg.Faults = sc.plan
		for _, algo := range p.Algorithms {
			cells = append(cells, cell{name: fmt.Sprintf("faults %s %s", sc.key, algo), cfg: cfg, algo: algo})
		}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		for j, algo := range p.Algorithms {
			sum := sums[i*len(p.Algorithms)+j]
			for _, rm := range faultRowMetrics {
				iv, ok := sum.Metric(rm.metric)
				if !ok {
					return nil, fmt.Errorf("experiments: faults %s/%s: missing metric %s", sc.key, algo, rm.metric)
				}
				t.Set(sc.key+": "+rm.label, algo, iv)
			}
		}
	}
	t.AddNote("crash evicts PCPU1's VCPU and rolls back its progress (work lost); recovery is ticks from restart to first re-assignment (0 = re-seated within the restart tick); the stall storm runs on spinlock-sync VMs so the stalled VCPU is a preempted lock holder; misdecision windows discard scheduler decisions")
	return t, nil
}
