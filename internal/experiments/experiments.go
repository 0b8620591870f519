// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV), plus the ablations DESIGN.md adds: each
// experiment builds the paper's virtualization setups, runs
// confidence-interval controlled replications through either engine, and
// renders the series the corresponding figure plots.
//
// Parameter choices (the paper does not publish its workload numbers; see
// EXPERIMENTS.md): load durations ~ Uniform[1,10) ticks, hypervisor
// timeslice 30 ticks, horizon 20000 ticks, sync ratio 1:5 unless a figure
// varies it, RCS skew thresholds enter=timeslice/3 and exit=enter/2.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vcpusim/internal/cluster"
	"vcpusim/internal/core"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/obs/probe"
	"vcpusim/internal/report"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/stats"
	"vcpusim/internal/workload"
)

// Engine selects which simulation engine runs the replications.
type Engine string

// Engines.
const (
	// EngineSAN runs the composed Stochastic Activity Network model (the
	// paper's approach, on our Möbius-substitute engine).
	EngineSAN Engine = "san"
	// EngineFast runs the direct tick-loop engine, cross-validated
	// against the SAN engine; an order of magnitude faster.
	EngineFast Engine = "fast"
)

// Params configures an experiment run.
type Params struct {
	// Engine selects the simulation engine; default EngineFast.
	Engine Engine
	// Timeslice is the hypervisor timeslice in ticks; default 30.
	Timeslice int64
	// Load is the workload duration distribution; default Uniform[1,10).
	Load rng.Distribution
	// Horizon is the simulated ticks per replication; default 20000.
	Horizon int64
	// Warmup is the transient prefix (ticks) excluded from every metric;
	// default 0 (the systems under study reach steady state within a few
	// timeslices, and EXPERIMENTS.md's published numbers use 0).
	Warmup int64
	// Seed derives all replication seeds; default 1.
	Seed uint64
	// Algorithms to evaluate; default the paper's RRS, SCS, RCS.
	Algorithms []string
	// Sim controls replications and stopping; zero fields take the sim
	// package defaults (95 % confidence, <0.1 relative half-width, 10-100
	// replications), matching the paper's reported settings. Its
	// Parallelism is the width of the one worker pool that runs every
	// (cell, replication) of a figure; results are identical at any width.
	Sim sim.Options
	// Sink, when non-nil, receives the experiment's telemetry span
	// stream: cell.start / cell.end events (with per-cell engine-counter
	// rollups, replication counts, and wall time) from the grid, plus the
	// replication controller's sim.batch / sim.stop events, each stamped
	// with its cell name. Implementations must tolerate concurrent Emit
	// calls when Sim.Parallelism > 1 (every obs sink does). Nil means
	// telemetry off: no event, counter rollup, or timestamp is taken.
	Sink obs.Sink
	// Histograms enables the core model's reward distributions
	// (wait-time, queue-depth, stall-duration): every SAN replication
	// then reports hist/<base>/{p50,p95,p99,mean,count} metrics, and
	// with a Sink installed the per-cell merged summaries ride the
	// cell.end event into the run manifest. SAN engine only (the fast
	// engine has no histogram surface); default off, which keeps the
	// replication hot path allocation-identical to earlier releases.
	Histograms bool
	// Probe, when non-nil, records one deterministic time-series CSV
	// per grid cell: after a cell's replications complete, a dedicated
	// extra replication runs on a fresh worker with a probe sampler
	// attached, always seeded with Seed — so the series is a pure
	// function of the cell and Seed, bit-identical at any
	// Sim.Parallelism. Requires the SAN engine.
	Probe *ProbeOptions
}

// ProbeOptions configures the per-cell time-series probes and collects
// their manifest entries. One value is shared by every cell of a run;
// the collection side is safe for concurrent cells.
type ProbeOptions struct {
	// Dir receives the probe CSV files, one per cell.
	Dir string
	// Every is the sampling cadence in virtual ticks; values <= 0
	// default to Horizon/100.
	Every float64

	mu    sync.Mutex
	files []obs.SeriesFile
}

func (o *ProbeOptions) add(sf obs.SeriesFile) {
	o.mu.Lock()
	o.files = append(o.files, sf)
	o.mu.Unlock()
}

// Files returns the collected series entries sorted by name — the
// deterministic order the run manifest records them in.
func (o *ProbeOptions) Files() []obs.SeriesFile {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := append([]obs.SeriesFile(nil), o.files...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Defaults returns the parameterization used for EXPERIMENTS.md.
func Defaults() Params {
	return Params{
		Engine:     EngineFast,
		Timeslice:  30,
		Load:       rng.Uniform{Low: 1, High: 10},
		Horizon:    20000,
		Seed:       1,
		Algorithms: []string{"RRS", "SCS", "RCS"},
	}
}

func (p Params) withDefaults() Params {
	d := Defaults()
	if p.Engine == "" {
		p.Engine = d.Engine
	}
	if p.Timeslice == 0 {
		p.Timeslice = d.Timeslice
	}
	if p.Load == nil {
		p.Load = d.Load
	}
	if p.Horizon == 0 {
		p.Horizon = d.Horizon
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if len(p.Algorithms) == 0 {
		p.Algorithms = append([]string(nil), d.Algorithms...)
	}
	return p
}

// workloadSpec builds the workload specification for a sync ratio of 1:n.
func (p Params) workloadSpec(syncEveryN int) workload.Spec {
	return workload.Spec{Load: p.Load, SyncEveryN: syncEveryN}
}

// fig8Config is the paper's Figure 8 setup: one 2-VCPU VM and two 1-VCPU
// VMs, sync ratio 1:5.
func (p Params) fig8Config(pcpus int) core.SystemConfig {
	wl := p.workloadSpec(5)
	return core.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: p.Timeslice,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: 1, Workload: wl},
			{Name: "VM3", VCPUs: 1, Workload: wl},
		},
	}
}

// VMSet identifies the paper's Figure 9/10 VM sets.
type VMSet int

// The paper's three VM sets (Section IV.B): set 1 is two 2-VCPU VMs, set 2
// a 2-VCPU and a 3-VCPU VM, set 3 a 2-VCPU and a 4-VCPU VM — always on
// four PCPUs.
const (
	Set1 VMSet = iota + 1
	Set2
	Set3
)

// String names the set as in the paper.
func (s VMSet) String() string {
	switch s {
	case Set1:
		return "set1 (2+2 VCPUs)"
	case Set2:
		return "set2 (2+3 VCPUs)"
	case Set3:
		return "set3 (2+4 VCPUs)"
	default:
		return fmt.Sprintf("VMSet(%d)", int(s))
	}
}

// setConfig builds a VM-set configuration with the given sync ratio.
func (p Params) setConfig(s VMSet, syncEveryN int) (core.SystemConfig, error) {
	wl := p.workloadSpec(syncEveryN)
	second := 0
	switch s {
	case Set1:
		second = 2
	case Set2:
		second = 3
	case Set3:
		second = 4
	default:
		return core.SystemConfig{}, fmt.Errorf("experiments: unknown VM set %d", int(s))
	}
	return core.SystemConfig{
		PCPUs:     4,
		Timeslice: p.Timeslice,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: second, Workload: wl},
		},
	}, nil
}

// schedFactory resolves an algorithm name with the experiment's knobs.
func (p Params) schedFactory(name string) (core.SchedulerFactory, error) {
	return sched.Factory(name, sched.Params{Timeslice: p.Timeslice})
}

// EfficiencyMetric is the derived per-replication metric vutil/avail: the
// fraction of a VCPU's scheduled (ACTIVE) time spent processing workloads.
// EXPERIMENTS.md explains why Figure 10's ordering is reported under this
// normalization.
const EfficiencyMetric = "vutil_per_active/avg"

// withEfficiency adds the derived EfficiencyMetric to a replication's
// metric map and returns it.
func withEfficiency(m map[string]float64) map[string]float64 {
	if avail := m[core.AvailabilityAvgMetric]; avail > 0 {
		m[EfficiencyMetric] = m[core.VCPUUtilizationAvgMetric] / avail
	} else {
		m[EfficiencyMetric] = 0
	}
	return m
}

// fastCounters maps the fast engine's tick-loop counters onto the
// engine-agnostic rollup.
func fastCounters(s fastsim.Stats) obs.Counters {
	return obs.Counters{
		Events:       uint64(s.Ticks),
		Firings:      uint64(s.Jobs + s.Unblocks),
		TimedFirings: uint64(s.Jobs),
		InstFirings:  uint64(s.Unblocks),
		Scheduled:    uint64(s.ScheduleIns),
		Cancelled:    uint64(s.ScheduleOuts),
	}
}

// sanCounters maps one SAN replication's stats onto the rollup.
func sanCounters(s san.Stats) obs.Counters {
	return obs.Counters{
		Events:            s.EventsFired,
		Firings:           s.TimedFirings + s.InstFirings,
		TimedFirings:      s.TimedFirings,
		InstFirings:       s.InstFirings,
		Aborts:            s.Aborts,
		Scheduled:         s.EventsScheduled,
		Cancelled:         s.EventsCancelled,
		StabilizeIters:    s.StabilizeIters,
		MaxStabilizeDepth: s.MaxStabilizeDepth,
	}
}

// replicatorFactory builds a sim.ReplicatorFactory for one (config,
// algorithm) cell; every replication adds the derived efficiency metric.
// On the SAN engine each pool worker gets its own core.Worker — the model
// is built and compiled once per worker, and every replication only
// reseeds it — which is where the compile-once executive's speedup comes
// from. The fast engine's replicator is stateless and shared across
// workers. A non-nil log records every replication's engine counters
// (and, with Histograms, its reward distributions) for the cell.end
// rollup; a non-nil sink receives fault.inject/fault.recover spans when
// cfg carries a fault plan.
func (p Params) replicatorFactory(cfg core.SystemConfig, factory core.SchedulerFactory, log *cellLog, sink obs.Sink) sim.ReplicatorFactory {
	if p.Engine == EngineFast {
		rep := func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			eng, err := fastsim.New(cfg, factory(), seed)
			if err != nil {
				return nil, err
			}
			m, err := eng.RunInterval(p.Warmup, p.Horizon)
			if err != nil {
				return nil, err
			}
			if log != nil {
				log.counters[rep] = fastCounters(eng.Stats())
			}
			return withEfficiency(m), nil
		}
		return func() (sim.Replicator, error) { return rep, nil }
	}
	return func() (sim.Replicator, error) {
		if p.Engine != EngineSAN {
			return nil, fmt.Errorf("experiments: unknown engine %q", p.Engine)
		}
		w, err := core.NewWorker(cfg, factory)
		if err != nil {
			return nil, err
		}
		if sink != nil {
			w.SetFaultSink(sink)
		}
		if p.Histograms {
			w.EnableHistograms()
		}
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m, err := w.RunIntervalContext(ctx, float64(p.Warmup), float64(p.Horizon), seed)
			if err != nil {
				return nil, err
			}
			if log != nil {
				c := sanCounters(w.LastStats())
				if cfg.Faults != nil {
					c.FaultInjects = uint64(m[faults.InjectsMetric] + 0.5)
					c.FaultRecovers = uint64(m[faults.RecoversMetric] + 0.5)
				}
				log.counters[rep] = c
				w.CollectHistograms(&log.hists[rep])
			}
			return withEfficiency(m), nil
		}, nil
	}
}

// cell is one experiment of a figure's grid: a single-host config run
// under a scheduler (sched, or the algorithm named algo), or a cluster
// topology when topo is set. Its name is also its telemetry label.
type cell struct {
	name  string
	cfg   core.SystemConfig
	algo  string
	sched core.SchedulerFactory
	topo  *cluster.Topology
}

// runCells runs a figure's cells as one grid on the sim worker pool,
// Sim.Parallelism wide, and returns their summaries in cell order.
func (p Params) runCells(ctx context.Context, cells []cell) ([]sim.Summary, error) {
	grid := make([]sim.Cell, len(cells))
	for i, c := range cells {
		if c.topo == nil && c.sched == nil {
			var err error
			if c.sched, err = p.schedFactory(c.algo); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", c.name, err)
			}
		}
		grid[i] = p.runCell(c)
	}
	sums, err := sim.RunCells(ctx, p.Sim.Parallelism, grid)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return sums, nil
}

// runCell builds one cell's pool entry. With a telemetry sink installed,
// the cell is bracketed in cell.start / cell.end spans: cell.start when
// the first pool worker builds its replicator (sync.Once holds the other
// workers until it is out, so it precedes all of the cell's spans), and
// cell.end when the cell finishes, with the engine-counter (and
// histogram) rollup of exactly the replications the summary kept. The
// replication controller's spans are stamped with the cell name. With no
// sink no counter or clock is read. Finish also runs a single-host cell's
// probe.
func (p Params) runCell(c cell) sim.Cell {
	pc := sim.Cell{Name: c.name, Options: p.Sim}
	pc.Options.Seed = p.Seed
	var log *cellLog
	if p.Sink != nil {
		n := pc.Options.WithDefaults().MaxReps
		log = &cellLog{counters: make([]obs.Counters, n), hists: make([]obs.HistAccumulator, n)}
		pc.Options.Sink = obs.WithCell(p.Sink, c.name)
	}
	if c.topo != nil {
		pc.Factory = clusterFactory(c.topo, pc.Options.Sink, log)
	} else {
		pc.Factory = p.replicatorFactory(c.cfg, c.sched, log, pc.Options.Sink)
	}
	var (
		start time.Duration
		once  sync.Once
	)
	if log != nil {
		factory := pc.Factory
		pc.Factory = func() (sim.Replicator, error) {
			once.Do(func() {
				start = obs.Clock()
				p.Sink.Emit(obs.Event{Kind: obs.KindCellStart, Cell: c.name})
			})
			return factory()
		}
	}
	pc.Finish = func(ctx context.Context, sum sim.Summary) error {
		if log != nil {
			p.Sink.Emit(log.end(c.name, sum, obs.Clock()-start))
		}
		if c.topo != nil {
			return nil
		}
		return p.probeCell(ctx, c.name, c.cfg, c.sched)
	}
	return pc
}

// cellLog records one cell's per-replication telemetry by replication
// index; each replication writes only its own entries. The pool may run a
// few replications past the stop and discard them, so the cell.end rollup
// folds only the replications the summary kept: the same rollup as a
// serial run's at any width.
type cellLog struct {
	counters []obs.Counters
	hists    []obs.HistAccumulator // filled with Histograms only
}

// end builds the cell.end event for a finished cell.
func (l *cellLog) end(name string, sum sim.Summary, elapsed time.Duration) obs.Event {
	var (
		acc  obs.Accumulator
		hist obs.HistAccumulator
	)
	for i := 0; i < sum.Replications; i++ {
		acc.Add(l.counters[i])
		hist.Merge(&l.hists[i])
	}
	counters := acc.Counters()
	counters.WallNS = elapsed.Nanoseconds()
	counters.FillRate()
	return obs.Event{
		Kind:      obs.KindCellEnd,
		Cell:      name,
		Reps:      sum.Replications,
		Converged: sum.Converged,
		ElapsedNS: elapsed.Nanoseconds(),
		Counters:  &counters,
		Hist:      hist.Summaries(),
	}
}

// probeCell runs a cell's dedicated probe replication: a fresh worker
// (never the cell's pooled workers) traced by a Sampler at the probe
// cadence, always seeded with p.Seed. Because the probed replication is
// separate from the confidence-interval pool, the series is identical
// whatever order or parallelism the pool ran with.
func (p Params) probeCell(ctx context.Context, cell string, cfg core.SystemConfig, factory core.SchedulerFactory) error {
	if p.Probe == nil {
		return nil
	}
	if p.Engine != EngineSAN {
		return fmt.Errorf("probes require the SAN engine (cell %s runs %q)", cell, p.Engine)
	}
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		return fmt.Errorf("probe %s: %w", cell, err)
	}
	every := p.Probe.Every
	if every <= 0 {
		every = float64(p.Horizon) / 100
	}
	s, err := probe.New(w, every)
	if err != nil {
		return fmt.Errorf("probe %s: %w", cell, err)
	}
	s.Install()
	if _, err := w.RunIntervalContext(ctx, float64(p.Warmup), float64(p.Horizon), p.Seed); err != nil {
		return fmt.Errorf("probe %s: %w", cell, err)
	}
	s.Finish(float64(p.Horizon))
	name := probeSlug(cell)
	sf, err := s.WriteFile(name, filepath.Join(p.Probe.Dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("probe %s: %w", cell, err)
	}
	p.Probe.add(sf)
	return nil
}

// probeSlug sanitizes a cell name into the probe file's name stem.
func probeSlug(cell string) string {
	b := []byte("probe_" + cell)
	for i, c := range b {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Figure8 reproduces the paper's Figure 8: the availability of the four
// VCPUs in three VMs (2+1+1 VCPUs) under each algorithm as the number of
// PCPUs grows from one to four (sync ratio 1:5). One table row per
// (algorithm, PCPU count); one column per VCPU.
func Figure8(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	vcpuCols := []string{"VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1"}
	vcpuMetrics := []string{
		core.AvailabilityMetric(0, 0),
		core.AvailabilityMetric(0, 1),
		core.AvailabilityMetric(1, 0),
		core.AvailabilityMetric(2, 0),
	}
	var rows []string
	for _, algo := range p.Algorithms {
		for pcpus := 1; pcpus <= 4; pcpus++ {
			rows = append(rows, fmt.Sprintf("%s %dPCPU", algo, pcpus))
		}
	}
	t := report.NewTable(
		"Figure 8: VCPU availability, 3 VMs (2+1+1 VCPUs), sync 1:5, 95% CI",
		"setup", rows, vcpuCols)
	cells := make([]cell, len(rows))
	for i, row := range rows {
		cells[i] = cell{name: "figure 8 " + row, cfg: p.fig8Config(i%4 + 1), algo: p.Algorithms[i/4]}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for r, sum := range sums {
		for i, col := range vcpuCols {
			iv, ok := sum.Metric(vcpuMetrics[i])
			if !ok {
				return nil, fmt.Errorf("experiments: figure 8 missing metric %s", vcpuMetrics[i])
			}
			t.Set(rows[r], col, iv)
		}
	}
	t.AddNote("paper: RRS fair at every PCPU count; SCS starves the 2-VCPU VM at 1 PCPU; RCS schedules it but below the 1-VCPU VMs; co-schedulers converge to fairness by 4 PCPUs")
	return t, nil
}

// Figure9 reproduces the paper's Figure 9: averaged PCPU utilization of
// four PCPUs across the three VM sets (sync ratio 1:5). One row per VM
// set; one column per algorithm.
func Figure9(ctx context.Context, p Params) (*report.Table, error) {
	p = p.withDefaults()
	sets := []VMSet{Set1, Set2, Set3}
	rows := make([]string, len(sets))
	for i, s := range sets {
		rows[i] = s.String()
	}
	t := report.NewTable(
		"Figure 9: averaged PCPU utilization (4 PCPUs), sync 1:5, 95% CI",
		"VM set", rows, p.Algorithms)
	var cells []cell
	for _, s := range sets {
		cfg, err := p.setConfig(s, 5)
		if err != nil {
			return nil, err
		}
		for _, algo := range p.Algorithms {
			cells = append(cells, cell{name: fmt.Sprintf("figure 9 %s %s", s, algo), cfg: cfg, algo: algo})
		}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, s := range sets {
		for j, algo := range p.Algorithms {
			iv, _ := sums[i*len(p.Algorithms)+j].Metric(core.PCPUUtilizationAvgMetric)
			t.Set(s.String(), algo, iv)
		}
	}
	t.AddNote("paper: co-schedulers under-utilize PCPUs when VCPUs outnumber PCPUs (fragmentation); RCS stays above 90%%; RRS at 100%%")
	return t, nil
}

// Figure10 reproduces the paper's Figure 10: averaged VCPU utilization
// with four PCPUs across the VM sets as the sync ratio varies from 1:5 to
// 1:2. It returns two tables over the same cells: the utilization of
// scheduled (ACTIVE) time — the normalization under which the paper's
// SCS > RCS > RRS ordering emerges — and the absolute fraction of total
// time (see EXPERIMENTS.md for the discussion).
func Figure10(ctx context.Context, p Params) (efficiency, absolute *report.Table, err error) {
	p = p.withDefaults()
	sets := []VMSet{Set1, Set2, Set3}
	syncs := []int{5, 4, 3, 2}
	var rows []string
	for _, s := range sets {
		for _, n := range syncs {
			rows = append(rows, fmt.Sprintf("%s sync 1:%d", s, n))
		}
	}
	efficiency = report.NewTable(
		"Figure 10: averaged VCPU utilization of scheduled time (4 PCPUs), 95% CI",
		"setup", rows, p.Algorithms)
	absolute = report.NewTable(
		"Figure 10 (companion): absolute VCPU utilization of total time (4 PCPUs), 95% CI",
		"setup", rows, p.Algorithms)
	var cells []cell
	for i, row := range rows {
		cfg, cfgErr := p.setConfig(sets[i/len(syncs)], syncs[i%len(syncs)])
		if cfgErr != nil {
			return nil, nil, cfgErr
		}
		for _, algo := range p.Algorithms {
			cells = append(cells, cell{name: fmt.Sprintf("figure 10 %s %s", row, algo), cfg: cfg, algo: algo})
		}
	}
	sums, err := p.runCells(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	for i, row := range rows {
		for j, algo := range p.Algorithms {
			sum := sums[i*len(p.Algorithms)+j]
			ivEff, _ := sum.Metric(EfficiencyMetric)
			ivAbs, _ := sum.Metric(core.VCPUUtilizationAvgMetric)
			efficiency.Set(row, algo, ivEff)
			absolute.Set(row, algo, ivAbs)
		}
	}
	efficiency.AddNote("paper: equal at set1; SCS highest, RCS slightly below, RRS lowest and degrading as sync rate rises")
	absolute.AddNote("absolute normalization: RRS's higher availability dominates; see EXPERIMENTS.md")
	return efficiency, absolute, nil
}

// fairnessSpread returns max-min availability across the four Figure 8
// VCPUs, a scalar unfairness measure used by ablation tables.
func fairnessSpread(sum sim.Summary) stats.Interval {
	names := []string{
		core.AvailabilityMetric(0, 0),
		core.AvailabilityMetric(0, 1),
		core.AvailabilityMetric(1, 0),
		core.AvailabilityMetric(2, 0),
	}
	min, max := 2.0, -1.0
	var n int64
	for _, name := range names {
		iv := sum.Metrics[name]
		if iv.Mean < min {
			min = iv.Mean
		}
		if iv.Mean > max {
			max = iv.Mean
		}
		n = iv.N
	}
	return stats.Interval{Mean: max - min, Level: sum.Level, N: n}
}
