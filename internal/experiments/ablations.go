package experiments

import (
	"context"
	"fmt"
	"math"

	"vcpusim/internal/core"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/report"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/stats"
	"vcpusim/internal/workload"
)

// TimesliceSweep is an ablation beyond the paper: it re-runs the Figure 10
// set-2 setup (2+3 VCPUs on 4 PCPUs, sync 1:5) across hypervisor
// timeslices, showing how the rotation latency that drives RRS's
// synchronization stalls scales with the timeslice while the co-schedulers
// are insensitive to it. Cells are VCPU utilization of scheduled time.
func TimesliceSweep(ctx context.Context, p Params, timeslices []int64) (*report.Table, error) {
	p = p.withDefaults()
	if len(timeslices) == 0 {
		timeslices = []int64{10, 30, 60, 120}
	}
	rows := make([]string, len(timeslices))
	for i, ts := range timeslices {
		rows[i] = fmt.Sprintf("timeslice %d", ts)
	}
	t := report.NewTable(
		"Ablation: timeslice sweep, set2 (2+3 VCPUs, 4 PCPUs), sync 1:5 — VCPU utilization of scheduled time",
		"timeslice", rows, p.Algorithms)
	var cells []cell
	for i, ts := range timeslices {
		q := p
		q.Timeslice = ts
		cfg, err := q.setConfig(Set2, 5)
		if err != nil {
			return nil, err
		}
		for _, algo := range q.Algorithms {
			factory, err := q.schedFactory(algo) // the sweep's timeslice, not p's
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{name: rows[i] + " " + algo, cfg: cfg, sched: factory})
		}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		row, algo := rows[i/len(p.Algorithms)], p.Algorithms[i%len(p.Algorithms)]
		iv, ok := sum.Metric(EfficiencyMetric)
		if !ok {
			return nil, fmt.Errorf("experiments: %s/%s: missing metric %s", row, algo, EfficiencyMetric)
		}
		t.Set(row, algo, iv)
	}
	return t, nil
}

// SkewSweep is an ablation beyond the paper: it varies RCS's skew
// thresholds on the Figure 8 one-PCPU setup and reports the trade-off the
// threshold controls — the 2-VCPU VM's availability (fairness toward the
// co-scheduled VM) against the availability of the 1-VCPU VMs.
func SkewSweep(ctx context.Context, p Params, enterSkews []int64) (*report.Table, error) {
	p = p.withDefaults()
	if len(enterSkews) == 0 {
		enterSkews = []int64{5, 10, 20, 40}
	}
	rows := make([]string, len(enterSkews))
	for i, e := range enterSkews {
		rows[i] = fmt.Sprintf("enter skew %d", e)
	}
	cols := []string{"2-VCPU VM availability", "1-VCPU VM availability", "fairness spread"}
	t := report.NewTable(
		"Ablation: RCS skew-threshold sweep, Figure 8 setup at 1 PCPU",
		"threshold", rows, cols)
	cfg := p.fig8Config(1)
	cells := make([]cell, len(enterSkews))
	for i, enter := range enterSkews {
		enter := enter
		cells[i] = cell{name: fmt.Sprintf("skew sweep enter=%d", enter), cfg: cfg, sched: func() core.Scheduler {
			return sched.NewRelaxedCo(sched.RelaxedCoParams{
				Timeslice: p.Timeslice,
				EnterSkew: enter,
				ExitSkew:  enter / 2,
			})
		}}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		pair := meanOf(sum, core.AvailabilityMetric(0, 0), core.AvailabilityMetric(0, 1))
		singles := meanOf(sum, core.AvailabilityMetric(1, 0), core.AvailabilityMetric(2, 0))
		t.Set(rows[i], cols[0], pair)
		t.Set(rows[i], cols[1], singles)
		t.Set(rows[i], cols[2], fairnessSpread(sum))
	}
	t.AddNote("smaller thresholds co-schedule more aggressively, costing the multi-VCPU VM more PCPU time under contention")
	return t, nil
}

// BalanceAblation is an extension experiment: it compares plain RRS against
// Balance scheduling (VCPU-stacking avoidance) on a stacking-prone setup —
// a 2-VCPU VM and a 1-VCPU VM on two PCPUs, where RRS's global rotation
// regularly serializes the siblings behind each other while balance
// placement keeps them in different run queues — reporting the VCPU
// utilization of scheduled time (sync latency) and fairness. (On symmetric
// gang topologies the two algorithms coincide: RRS's synchronized expiry
// waves keep siblings together by accident.)
func BalanceAblation(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	wl := p.workloadSpec(2) // high sync pressure makes stacking visible
	cfg := core.SystemConfig{
		PCPUs:     2,
		Timeslice: p.Timeslice,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: 1, Workload: wl},
		},
	}
	algos := []string{"RRS", "Balance", "SCS", "RCS"}
	rows := []string{
		"availability avg",
		"availability VCPU1.1", "availability VCPU1.2", "availability VCPU2.1",
		"VCPU util of scheduled time", "PCPU utilization",
	}
	t := report.NewTable(
		"Extension: Balance scheduling vs RRS on a stacking-prone setup (2+1 VCPUs, 2 PCPUs, sync 1:2)",
		"metric", rows, algos)
	cells := make([]cell, len(algos))
	for i, algo := range algos {
		cells[i] = cell{name: "balance ablation " + algo, cfg: cfg, algo: algo}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		algo := algos[i]
		set := func(row, metric string) {
			iv, _ := sum.Metric(metric)
			t.Set(row, algo, iv)
		}
		set(rows[0], core.AvailabilityAvgMetric)
		set(rows[1], core.AvailabilityMetric(0, 0))
		set(rows[2], core.AvailabilityMetric(0, 1))
		set(rows[3], core.AvailabilityMetric(1, 0))
		set(rows[4], EfficiencyMetric)
		set(rows[5], core.PCPUUtilizationAvgMetric)
	}
	t.AddNote("finding: this framework's RRS uses one global rotation, so VCPU stacking never arises and balance placement shows no latency win; its static per-PCPU queues instead skew fairness on asymmetric topologies")
	return t, nil
}

// LockAblation is an extension experiment beyond the paper (its §V lists
// "represent more synchronization mechanisms" as future work): the VMs'
// sync points are spinlocks instead of barriers, modeling guest kernel
// critical sections. Two 3-VCPU VMs on four PCPUs run lock-heavy (1:2)
// workloads; the table reports, per algorithm, the spin waste (fraction of
// VCPU time burning a PCPU behind a preempted lock holder), the productive
// share of busy time, and effective utilization. Strict co-scheduling never
// strands a lock holder (zero spin); relaxed co-scheduling mitigates but
// does not eliminate stranding, since single starts may deschedule a holder
// until the co-stop fires.
func LockAblation(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	wl := workload.Spec{
		Load:       p.Load,
		SyncEveryN: 2,
		SyncKind:   workload.SyncSpinlock,
	}
	cfg := core.SystemConfig{
		PCPUs:     4,
		Timeslice: p.Timeslice,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 3, Workload: wl},
			{Name: "VM2", VCPUs: 3, Workload: wl},
		},
	}
	algos := append([]string(nil), p.Algorithms...)
	algos = append(algos, "Balance")
	rows := []string{"spin fraction", "productive share of busy time", "effective utilization", "availability"}
	t := report.NewTable(
		"Extension: lock-holder preemption (spinlock sync), 3+3 VCPUs, 4 PCPUs, locks 1:2",
		"metric", rows, algos)
	cells := make([]cell, len(algos))
	for i, algo := range algos {
		cells[i] = cell{name: "lock ablation " + algo, cfg: cfg, algo: algo}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		algo := algos[i]
		spin, _ := sum.Metric(core.SpinFractionMetric)
		workIv, _ := sum.Metric(core.EffectiveUtilizationMetric)
		busyIv, _ := sum.Metric(core.VCPUUtilizationAvgMetric)
		availIv, _ := sum.Metric(core.AvailabilityAvgMetric)
		productive := stats.Interval{Mean: 1, Level: sum.Level, N: workIv.N}
		if busyIv.Mean > 0 {
			productive.Mean = workIv.Mean / busyIv.Mean
		}
		t.Set(rows[0], algo, spin)
		t.Set(rows[1], algo, productive)
		t.Set(rows[2], algo, workIv)
		t.Set(rows[3], algo, availIv)
	}
	t.AddNote("spin waste burns physical CPU without guest progress — the semantic-gap cost co-scheduling eliminates")
	return t, nil
}

// EngineComparison validates model fidelity (the paper's §V discussion): it
// runs identical configurations on the SAN engine and the direct engine and
// reports the largest absolute disagreement per metric across seeds. The
// two implementations share only the documented tick semantics, so
// agreement at floating-point precision is strong evidence both implement
// them correctly.
func EngineComparison(ctx context.Context, p Params, seeds int) (*report.Table, error) {
	p = p.withDefaults()
	if seeds <= 0 {
		seeds = 5
	}
	cfg := p.fig8Config(2)
	rows := make([]string, 0, len(p.Algorithms))
	rows = append(rows, p.Algorithms...)
	cols := []string{"max |SAN - fast|", "metrics compared"}
	t := report.NewTable(
		"Fidelity: SAN engine vs direct engine, Figure 8 setup at 2 PCPUs",
		"algorithm", rows, cols)
	for _, algo := range p.Algorithms {
		factory, err := p.schedFactory(algo)
		if err != nil {
			return nil, err
		}
		maxDelta := 0.0
		compared := 0
		for s := 0; s < seeds; s++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: engine comparison cancelled: %w", err)
			}
			seed := p.Seed + uint64(s)
			sanRes, err := core.RunReplication(cfg, factory, float64(p.Horizon), seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: SAN replication: %w", err)
			}
			fastRes, err := fastsim.RunReplication(cfg, factory, p.Horizon, seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: fast replication: %w", err)
			}
			for name, v := range fastRes {
				sv, ok := sanRes[name]
				if !ok {
					return nil, fmt.Errorf("experiments: SAN engine missing metric %s", name)
				}
				if d := math.Abs(v - sv); d > maxDelta {
					maxDelta = d
				}
				compared++
			}
		}
		t.Set(algo, cols[0], stats.Interval{Mean: maxDelta, Level: 1, N: int64(seeds)})
		t.Set(algo, cols[1], stats.Interval{Mean: float64(compared), Level: 1, N: int64(seeds)})
	}
	t.AddNote("identical seeds drive identical workload streams; both engines must produce the same trajectory")
	return t, nil
}

// meanOf averages the means of several metrics into one interval (the CI
// half-width is the largest of the constituents').
func meanOf(sum sim.Summary, names ...string) stats.Interval {
	var mean, hw float64
	var n int64
	for _, name := range names {
		iv := sum.Metrics[name]
		mean += iv.Mean
		if iv.HalfWidth > hw {
			hw = iv.HalfWidth
		}
		n = iv.N
	}
	return stats.Interval{Mean: mean / float64(len(names)), HalfWidth: hw, Level: sum.Level, N: n}
}

// HybridAblation is an extension experiment for the hybrid scheduling
// framework (Weng et al., the paper's related work [7]): a lock-heavy
// 3-VCPU parallel VM shares four PCPUs with an independent 2-VCPU batch
// VM. Marking only the parallel VM concurrent eliminates its spin waste
// (like SCS) while the batch VM's VCPUs are scheduled individually and
// backfill the PCPUs that strict gang scheduling would leave idle (like
// RRS) — the middle ground neither pure algorithm reaches.
func HybridAblation(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	lockWL := workload.Spec{Load: p.Load, SyncEveryN: 2, SyncKind: workload.SyncSpinlock}
	batchWL := workload.Spec{Load: p.Load, SyncEveryN: 0}
	cfg := core.SystemConfig{
		PCPUs:     4,
		Timeslice: p.Timeslice,
		VMs: []core.VMConfig{
			{Name: "parallel", VCPUs: 3, Workload: lockWL},
			{Name: "batch", VCPUs: 2, Workload: batchWL},
		},
	}
	algos := []struct {
		name    string
		factory core.SchedulerFactory
	}{
		{"RRS", func() core.Scheduler { return sched.NewRoundRobin(p.Timeslice) }},
		{"SCS", func() core.Scheduler { return sched.NewStrictCo(p.Timeslice) }},
		{"Hybrid(co:parallel)", func() core.Scheduler {
			return sched.NewHybrid(sched.HybridParams{Timeslice: p.Timeslice, ConcurrentVMs: []int{0}})
		}},
	}
	rows := []string{"spin fraction", "PCPU utilization", "effective utilization", "batch availability"}
	t := report.NewTable(
		"Extension: hybrid scheduling (Weng et al.), lock-heavy 3-VCPU VM + independent 2-VCPU VM, 4 PCPUs",
		"metric", rows, []string{"RRS", "SCS", "Hybrid(co:parallel)"})
	cells := make([]cell, len(algos))
	for i, algo := range algos {
		cells[i] = cell{name: "hybrid ablation " + algo.name, cfg: cfg, sched: algo.factory}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		algo := algos[i]
		set := func(row, metric string) {
			iv, _ := sum.Metric(metric)
			t.Set(row, algo.name, iv)
		}
		set(rows[0], core.SpinFractionMetric)
		set(rows[1], core.PCPUUtilizationAvgMetric)
		set(rows[2], core.EffectiveUtilizationMetric)
		batchA := meanOf(sum, core.AvailabilityMetric(1, 0), core.AvailabilityMetric(1, 1))
		t.Set(rows[3], algo.name, batchA)
	}
	t.AddNote("the hybrid keeps the parallel VM spin-free (gang-scheduled) while the batch VCPUs backfill the PCPUs SCS would leave idle")
	return t, nil
}
