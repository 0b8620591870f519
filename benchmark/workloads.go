package main

import (
	"context"
	"fmt"
	"maps"
	"strings"

	"vcpusim/internal/cluster"
	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/experiments"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	wl "vcpusim/internal/workload"
)

// The paper's settings, shared by every grid workload (experiments.Defaults).
const timeslice = 30

var algorithms = []string{"RRS", "SCS", "RCS"}

// size scales a workload. Every workload runs a quarter of its full-size
// horizon (paper grids 20000 -> 5000 ticks, cluster 1000 -> 250) so that one
// pass takes one to four seconds and a 20-second run holds several passes
// for its median; tests shrink it further.
type size struct {
	// horizon is the simulated length of one replication in ticks.
	horizon float64
	// reps is the fixed replication count of the workloads that do not
	// stop on confidence intervals (faults, tandem-64).
	reps int
	// paper is the replication plan of the paper grids: the paper's
	// protocol (95 % level, 0.1 relative half-width, 10-60 replications).
	paper sim.Options
}

var benchSize = size{
	horizon: 5000,
	reps:    40,
	paper:   sim.Options{Level: 0.95, RelWidth: 0.1, MinReps: 10, MaxReps: 60},
}

// Every workload runs one replication at a time, leaving GOMAXPROCS at the
// CPU count so the collector has a processor of its own. On the shared
// 2-vCPU hosts this benchmark was built on, two concurrent replications
// made each batch wait for the slower vCPU: in two comparisons of ten
// interleaved runs of a 1000-host fleet, wall time spread by 9 % and 39 %
// at parallelism 2 against 5 % and 30 % at 1. The fixed value also keeps
// the paper grids' confidence-interval stopping points, and so every
// recorded digest, independent of the machine's CPU count.
const parallelism = 1

// The cluster workload runs 250 hosts for 1/20 of the grid horizon (a
// quarter of the 1000-tick fleet run it is modelled on), 8 replications.
// A 1000-host fleet was the first choice, but its wall time followed the
// host's memory contention, which no calibration tracked: ten runs spread
// by 19-37 % in busy hours, above the largest bound a metric may have,
// while ten 250-host runs interleaved with them spread by 6 %.
const (
	clusterHosts = 250
	clusterReps  = 8
)

// workloadNames lists the benchmark's workloads in run order.
var workloadNames = []string{"paper-fast", "paper-san", "faults", "tandem-64", "cluster-250"}

// A workload is one set of inputs the benchmark runs. setup builds every
// model of the workload once (the set-up cost); pass runs the workload
// end to end through sim.RunPooled, traced when tr is non-nil.
type workload interface {
	setup() error
	pass(ctx context.Context, seed uint64, tr *tracer) passResult
	// check rejects a cell whose output breaks a property the workload's
	// model guarantees.
	check(cellResult) error
}

// cellResult is one grid cell's outcome in a pass.
type cellResult struct {
	name string
	sum  sim.Summary
	err  error
	// attempted is the number of replications the cell ran, or its
	// replication budget when it failed before reporting one.
	attempted int
}

// passResult is one pass: every cell in order plus the engine counters
// rolled up over all of its replications.
type passResult struct {
	cells    []cellResult
	counters obs.Counters
	// fast marks counters from the tick-loop engine (events are ticks).
	fast bool
}

func (p passResult) attempted() int {
	n := 0
	for _, c := range p.cells {
		n += c.attempted
	}
	return n
}

// newWorkload builds a named workload at the given size.
func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "paper-fast":
		return paperGrid(experiments.EngineFast, sz), nil
	case "paper-san":
		return paperGrid(experiments.EngineSAN, sz), nil
	case "faults":
		return faultsGrid(sz), nil
	case "tandem-64":
		return &tandem{stations: 64, horizon: sz.horizon, reps: sz.reps}, nil
	case "cluster-250":
		return &fleet{hosts: clusterHosts, horizon: sz.horizon / 20, reps: clusterReps}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// cell is one (system, algorithm) point of a grid workload.
type cell struct {
	name  string
	cfg   core.SystemConfig
	algo  string
	sched core.SchedulerFactory
	// entries place the cell's metrics in the experiments package's
	// tables, so tests can compare the two cell for cell.
	entries []entry
}

// entry is one table value a cell produces.
type entry struct{ table, row, col, metric string }

// grid is a workload of independent cells run one after another, each
// through its own sim.RunPooled call — the experiments package's runGrid at
// grid parallelism 1.
type grid struct {
	engine  experiments.Engine
	horizon float64
	opts    sim.Options
	hist    bool
	// cross reruns the grid on the other engine to check its output.
	cross bool
	cells []cell
}

func newCell(name, algo string, cfg core.SystemConfig, entries ...entry) cell {
	f, err := sched.Factory(algo, sched.Params{Timeslice: timeslice})
	if err != nil {
		panic(err) // algorithms are the three fixed names above
	}
	return cell{name: name, cfg: cfg, algo: algo, sched: f, entries: entries}
}

func spec(syncEveryN int) wl.Spec {
	return wl.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: syncEveryN}
}

// fig8Config is the paper's Figure 8 system: VMs of 2, 1 and 1 VCPUs.
func fig8Config(pcpus int) core.SystemConfig {
	return core.SystemConfig{PCPUs: pcpus, Timeslice: timeslice, VMs: []core.VMConfig{
		{Name: "VM1", VCPUs: 2, Workload: spec(5)},
		{Name: "VM2", VCPUs: 1, Workload: spec(5)},
		{Name: "VM3", VCPUs: 1, Workload: spec(5)},
	}}
}

// setConfig is one of the paper's VM sets on four PCPUs.
func setConfig(set experiments.VMSet, syncEveryN int) core.SystemConfig {
	second := map[experiments.VMSet]int{experiments.Set1: 2, experiments.Set2: 3, experiments.Set3: 4}[set]
	return core.SystemConfig{PCPUs: 4, Timeslice: timeslice, VMs: []core.VMConfig{
		{Name: "VM1", VCPUs: 2, Workload: spec(syncEveryN)},
		{Name: "VM2", VCPUs: second, Workload: spec(syncEveryN)},
	}}
}

// paperGrid is the 57 cells of Figures 8, 9 and 10 under the paper's
// replication protocol.
func paperGrid(engine experiments.Engine, sz size) *grid {
	g := &grid{engine: engine, horizon: sz.horizon, opts: sz.paper, cross: true}
	vcpus := []string{"VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1"}
	avail := []string{core.AvailabilityMetric(0, 0), core.AvailabilityMetric(0, 1), core.AvailabilityMetric(1, 0), core.AvailabilityMetric(2, 0)}
	for _, algo := range algorithms {
		for pcpus := 1; pcpus <= 4; pcpus++ {
			row := fmt.Sprintf("%s %dPCPU", algo, pcpus)
			var es []entry
			for i, col := range vcpus {
				es = append(es, entry{"8", row, col, avail[i]})
			}
			g.cells = append(g.cells, newCell("figure 8 "+row, algo, fig8Config(pcpus), es...))
		}
	}
	sets := []experiments.VMSet{experiments.Set1, experiments.Set2, experiments.Set3}
	for _, set := range sets {
		for _, algo := range algorithms {
			g.cells = append(g.cells, newCell(fmt.Sprintf("figure 9 %s %s", set, algo), algo, setConfig(set, 5),
				entry{"9", set.String(), algo, core.PCPUUtilizationAvgMetric}))
		}
	}
	for _, set := range sets {
		for _, n := range []int{5, 4, 3, 2} {
			row := fmt.Sprintf("%s sync 1:%d", set, n)
			for _, algo := range algorithms {
				g.cells = append(g.cells, newCell(fmt.Sprintf("figure 10 %s %s", row, algo), algo, setConfig(set, n),
					entry{"10_1", row, algo, experiments.EfficiencyMetric},
					entry{"10_2", row, algo, core.VCPUUtilizationAvgMetric}))
			}
		}
	}
	return g
}

// faultRows are the campaign's table rows (experiments.FigureFaults).
var faultRows = []struct{ label, metric string }{
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

// faultsGrid is the dependability campaign: four fault scenarios on the
// Figure 8 system with two PCPUs, under each algorithm, histograms on. It
// runs a fixed replication count per cell rather than stopping on
// confidence intervals, so its work does not depend on the seed.
func faultsGrid(sz size) *grid {
	h := sz.horizon
	dist := func(d faults.Dist) *faults.Dist { return &d }
	scenarios := []struct {
		key      string
		spinlock bool
		spec     faults.Spec
	}{
		{"crash", false, faults.Spec{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 0.3 * h,
			Duration: dist(faults.Dist{Dist: "deterministic", Value: 0.2 * h})}},
		{"throttle", false, faults.Spec{Name: "slow0", Kind: faults.KindPCPUSlow, PCPU: 0, Factor: 0.5, At: 0.25 * h,
			Duration: dist(faults.Dist{Dist: "deterministic", Value: 0.5 * h})}},
		{"stall-storm", true, faults.Spec{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0, Count: 5,
			Every:    dist(faults.Dist{Dist: "exponential", Rate: 8 / h}),
			Duration: dist(faults.Dist{Dist: "uniform", Low: 0.01 * h, High: 0.05 * h})}},
		{"misdecision", false, faults.Spec{Name: "mis1", Kind: faults.KindMisdecision, At: 0.4 * h,
			Duration: dist(faults.Dist{Dist: "deterministic", Value: 0.05 * h})}},
	}
	opts := sz.paper
	opts.MinReps, opts.MaxReps = sz.reps, sz.reps
	g := &grid{engine: experiments.EngineSAN, horizon: h, opts: opts, hist: true}
	for _, sc := range scenarios {
		cfg := fig8Config(2)
		if sc.spinlock {
			for i := range cfg.VMs {
				cfg.VMs[i].Workload.SyncKind = wl.SyncSpinlock
			}
		}
		cfg.Faults = &faults.Plan{Faults: []faults.Spec{sc.spec}}
		for _, algo := range algorithms {
			var es []entry
			for _, r := range faultRows {
				es = append(es, entry{"faults", sc.key + ": " + r.label, algo, r.metric})
			}
			g.cells = append(g.cells, newCell(fmt.Sprintf("faults %s %s", sc.key, algo), algo, cfg, es...))
		}
	}
	return g
}

// setup builds every cell's model once: a compiled core.Worker per cell on
// the SAN engine, a fastsim.Engine per cell on the fast engine.
func (g *grid) setup() error {
	for _, c := range g.cells {
		if g.engine == experiments.EngineFast {
			if _, err := fastsim.New(c.cfg, c.sched(), 1); err != nil {
				return err
			}
			continue
		}
		w, err := core.NewWorker(c.cfg, c.sched)
		if err != nil {
			return err
		}
		if g.hist {
			w.EnableHistograms()
		}
	}
	return nil
}

func (g *grid) pass(ctx context.Context, seed uint64, tr *tracer) passResult {
	var acc obs.Accumulator
	res := passResult{fast: g.engine == experiments.EngineFast}
	for _, c := range g.cells {
		opts := g.opts
		opts.Seed, opts.Parallelism = seed, parallelism
		root := tr.open("sim.RunPooled", c.name, -1, 0)
		sum, err := sim.RunPooled(ctx, g.factory(c, tr, root.ID, &acc), opts)
		tr.close(root)
		res.cells = append(res.cells, newCellResult(c.name, sum, err, opts.MaxReps))
	}
	res.counters = acc.Counters()
	return res
}

func newCellResult(name string, sum sim.Summary, err error, budget int) cellResult {
	cr := cellResult{name: name, sum: sum, err: err, attempted: sum.Replications}
	if err != nil {
		cr.attempted = budget
	}
	return cr
}

// factory mirrors experiments' replicatorFactory: on the SAN engine every
// worker slot compiles one core.Worker and reseeds it per replication; on
// the fast engine every replication builds a fresh fastsim.Engine.
func (g *grid) factory(c cell, tr *tracer, parent int64, acc *obs.Accumulator) sim.ReplicatorFactory {
	return func() (sim.Replicator, error) {
		s := tr.newSlot(c.name, c.algo, parent)
		if g.engine == experiments.EngineFast {
			return g.fastReplicator(c, s, acc), nil
		}
		return g.sanReplicator(c, s, acc)
	}
}

func (g *grid) fastReplicator(c cell, s *slot, acc *obs.Accumulator) sim.Replicator {
	factory := s.wrap(c.sched)
	horizon := int64(g.horizon)
	return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := s.openRep(rep)
		n := s.open("fastsim.New", rep, r.ID)
		eng, err := fastsim.New(c.cfg, factory(), seed)
		s.close(n)
		if err != nil {
			return nil, err
		}
		ri := s.open("fastsim.RunInterval", rep, r.ID)
		m, err := eng.RunInterval(0, horizon)
		s.close(ri)
		if err != nil {
			return nil, err
		}
		st := eng.Stats()
		acc.Add(obs.Counters{
			Events: uint64(st.Ticks), Firings: uint64(st.Jobs + st.Unblocks),
			TimedFirings: uint64(st.Jobs), InstFirings: uint64(st.Unblocks),
			Scheduled: uint64(st.ScheduleIns), Cancelled: uint64(st.ScheduleOuts),
		})
		m = withEfficiency(m)
		s.close(r)
		return m, nil
	}
}

func (g *grid) sanReplicator(c cell, s *slot, acc *obs.Accumulator) (sim.Replicator, error) {
	nw := s.openSetup("core.NewWorker")
	w, err := core.NewWorker(c.cfg, s.wrap(c.sched))
	s.close(nw)
	if err != nil {
		return nil, err
	}
	if g.hist {
		w.EnableHistograms()
	}
	s.hook(w.Instance(), schedulingFunc(w.Program().Model()))
	return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var m map[string]float64
		var err error
		if s == nil {
			m, err = w.RunIntervalContext(ctx, 0, g.horizon, seed)
		} else {
			m, err = s.stepWorker(w, rep, seed, g.horizon)
		}
		if err != nil {
			return nil, err
		}
		acc.Add(sanCounters(w.LastStats()))
		return withEfficiency(m), nil
	}, nil
}

// stepWorker is Worker.RunIntervalContext taken apart into the calls it
// makes — Arm, BeginRun, the ProcessNextEvent loop, Collect — each timed
// as its own span.
func (s *slot) stepWorker(w *core.Worker, rep int, seed uint64, horizon float64) (map[string]float64, error) {
	r := s.openRep(rep)
	defer s.close(r)
	a := s.open("core.Arm", rep, r.ID)
	err := w.Arm(seed)
	s.close(a)
	if err != nil {
		return nil, err
	}
	inst := w.Instance()
	if err := s.stepInstance(inst, rep, r.ID, horizon); err != nil {
		return nil, err
	}
	c := s.open("core.Collect", rep, r.ID)
	m, err := w.Collect()
	s.close(c)
	return m, err
}

// stepInstance runs BeginRun and the event loop of one replication.
func (s *slot) stepInstance(inst *san.Instance, rep int, parent int64, horizon float64) error {
	b := s.open("san.BeginRun", rep, parent)
	err := inst.BeginRun(0, horizon)
	s.close(b)
	if err != nil {
		return err
	}
	ev := s.open("san.events", rep, parent)
	for inst.HasPendingEvents() {
		inst.ProcessNextEvent()
	}
	s.close(ev)
	return nil
}

// schedulingFunc finds the core model's hypervisor scheduling activity,
// whose firings call the plugged-in core.Scheduler.
func schedulingFunc(m *san.Model) *san.Activity {
	for _, a := range m.Activities() {
		if strings.HasSuffix(a.Name(), "/Scheduling_Func") {
			return a
		}
	}
	return nil
}

// withEfficiency adds experiments.EfficiencyMetric the way the experiments
// package does for every replication.
func withEfficiency(m map[string]float64) map[string]float64 {
	if avail := m[core.AvailabilityAvgMetric]; avail > 0 {
		m[experiments.EfficiencyMetric] = m[core.VCPUUtilizationAvgMetric] / avail
	} else {
		m[experiments.EfficiencyMetric] = 0
	}
	return m
}

func sanCounters(st san.Stats) obs.Counters {
	return obs.Counters{
		Events: st.EventsFired, Firings: st.TimedFirings + st.InstFirings,
		TimedFirings: st.TimedFirings, InstFirings: st.InstFirings, Aborts: st.Aborts,
		Scheduled: st.EventsScheduled, Cancelled: st.EventsCancelled,
		StabilizeIters: st.StabilizeIters, MaxStabilizeDepth: st.MaxStabilizeDepth,
	}
}

const tandemRate = 0.8 // arrival rate; every station serves at rate 1

// tandem is a user-built SAN: an open tandem of exponential stations fed
// by a Poisson source, compiled once per pass and reset per replication,
// a fixed number of replications on one goroutine.
type tandem struct {
	stations int
	horizon  float64
	reps     int
}

// The tandem's impulse rewards count arrivals into station 0 and
// departures from the last station.
const (
	tandemArrivals   = "arrivals"
	tandemDepartures = "departures"
)

func (t *tandem) model() *san.Model {
	m := san.NewModel("tandem")
	s := m.Sub("net")
	queues := make([]*san.Place, t.stations)
	for i := range queues {
		queues[i] = s.Place(fmt.Sprintf("q%d", i), 0)
	}
	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: tandemRate}).OutputArc(queues[0], 1)
	var last *san.Activity
	for i := range queues {
		last = s.TimedActivity(fmt.Sprintf("serve%d", i), rng.Exponential{Rate: 1}).InputArc(queues[i], 1)
		if i+1 < len(queues) {
			last.OutputArc(queues[i+1], 1)
		}
	}
	m.AddRateReward("L0", func() float64 { return float64(queues[0].Tokens()) }, queues[0].Name())
	m.AddImpulseReward(tandemArrivals, arrive, func() float64 { return 1 })
	m.AddImpulseReward(tandemDepartures, last, func() float64 { return 1 })
	return m
}

func (t *tandem) compile() (*san.Instance, error) {
	prog, err := san.Compile(t.model())
	if err != nil {
		return nil, err
	}
	return prog.NewInstance()
}

func (t *tandem) setup() error {
	_, err := t.compile()
	return err
}

func (t *tandem) pass(ctx context.Context, seed uint64, tr *tracer) passResult {
	const name = "tandem-64"
	var acc obs.Accumulator
	root := tr.open("sim.RunPooled", name, -1, 0)
	factory := func() (sim.Replicator, error) {
		s := tr.newSlot(name, "", root.ID)
		cs := s.openSetup("san.Compile")
		inst, err := t.compile()
		s.close(cs)
		if err != nil {
			return nil, err
		}
		s.hook(inst, nil)
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			var res san.Results
			var err error
			if s == nil {
				inst.Reset(seed)
				res, err = inst.RunIntervalContext(ctx, 0, t.horizon)
			} else {
				res, err = s.stepTandem(inst, rep, seed, t.horizon)
			}
			if err != nil {
				return nil, err
			}
			acc.Add(sanCounters(inst.Stats()))
			m := make(map[string]float64, len(res.Rates)+len(res.Impulses))
			maps.Copy(m, res.Rates)
			maps.Copy(m, res.Impulses)
			return m, nil
		}, nil
	}
	opts := sim.Options{MinReps: t.reps, MaxReps: t.reps, Parallelism: parallelism, Seed: seed}
	sum, err := sim.RunPooled(ctx, factory, opts)
	tr.close(root)
	return passResult{cells: []cellResult{newCellResult(name, sum, err, t.reps)}, counters: acc.Counters()}
}

func (s *slot) stepTandem(inst *san.Instance, rep int, seed uint64, horizon float64) (san.Results, error) {
	r := s.openRep(rep)
	defer s.close(r)
	rs := s.open("san.Reset", rep, r.ID)
	inst.Reset(seed)
	s.close(rs)
	if err := s.stepInstance(inst, rep, r.ID, horizon); err != nil {
		return san.Results{}, err
	}
	e := s.open("san.EndRun", rep, r.ID)
	res, err := inst.EndRun()
	s.close(e)
	return res, err
}

// fleet is the cluster workload: FigureCluster's fleet shape scaled to
// hundreds of hosts, run the way `vcpusim cluster` runs a topology.
type fleet struct {
	hosts   int
	horizon float64
	reps    int
}

// topology is half busy 2-PCPU hosts with a resident 2-VCPU VM, half idle
// 4-PCPU hosts of parked capacity; three arrival waves of one 1-VCPU VM per
// host, least-loaded placement, threshold migration every horizon/40.
func (f *fleet) topology(horizon float64, seed uint64) *cluster.Topology {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	vm := func(vcpus int) config.VM { return config.VM{VCPUs: vcpus, Load: load, SyncEveryN: 5} }
	busy := f.hosts / 2
	rrs := config.Scheduler{Name: "RRS"}
	return &cluster.Topology{
		Name: fmt.Sprintf("%d hosts", f.hosts), Contract: san.DefaultContract,
		Horizon: horizon, Placement: "least-loaded", Seed: seed,
		Hosts: []cluster.HostGroup{
			{Name: "busy", Count: busy, PCPUs: 2, Timeslice: timeslice, Scheduler: rrs,
				Slots: []cluster.Slot{{VM: vm(2), Count: 1, Admitted: true}, {VM: vm(1), Count: 1}}},
			{Name: "idle", Count: f.hosts - busy, PCPUs: 4, Timeslice: timeslice, Scheduler: rrs,
				Slots: []cluster.Slot{{VM: vm(2), Count: 1}, {VM: vm(1), Count: 2}}},
		},
		Arrivals: []cluster.Arrival{
			{At: 0.05 * horizon, Count: f.hosts, VCPUs: 1},
			{At: 0.35 * horizon, Count: f.hosts, VCPUs: 1},
			{At: 0.65 * horizon, Count: f.hosts, VCPUs: 1},
		},
		Migration: &cluster.Migration{CheckEvery: horizon / 40, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: horizon / 100},
	}
}

// arrivals is the number of VMs one replication dispatches or queues.
func (f *fleet) arrivals() int { return 3 * f.hosts }

func (f *fleet) setup() error {
	_, err := cluster.New(f.topology(f.horizon, 1))
	return err
}

func (f *fleet) pass(ctx context.Context, seed uint64, tr *tracer) passResult {
	return f.passAt(ctx, f.horizon, seed, tr)
}

// passAt runs the fleet at a given horizon: untraced through
// Topology.ReplicatorFactory, traced through the same cluster.New and
// Orchestrator.Replicate calls with each one timed.
func (f *fleet) passAt(ctx context.Context, horizon float64, seed uint64, tr *tracer) passResult {
	const name = "cluster-250"
	var acc obs.Accumulator
	topo := f.topology(horizon, seed)
	root := tr.open("sim.RunPooled", name, -1, 0)
	factory := topo.ReplicatorFactory(nil, &acc)
	if tr != nil {
		factory = func() (sim.Replicator, error) {
			s := tr.newSlot(name, "", root.ID)
			n := s.openSetup("cluster.New")
			o, err := cluster.New(topo)
			s.close(n)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
				r := s.openRep(rep)
				defer s.close(r)
				x := s.open("cluster.Replicate", rep, r.ID)
				m, err := o.Replicate(ctx, seed)
				s.close(x)
				if err != nil {
					return nil, err
				}
				acc.Add(o.LastStats())
				return m, nil
			}, nil
		}
	}
	opts := sim.Options{MinReps: f.reps, MaxReps: f.reps, Parallelism: parallelism, Seed: seed}
	sum, err := sim.RunPooled(ctx, factory, opts)
	tr.close(root)
	return passResult{cells: []cellResult{newCellResult(name, sum, err, f.reps)}, counters: acc.Counters()}
}

// layers splits the cluster's replication time into a fixed part and a
// per-event part from a second traced pass at a shorter horizon, and adds
// the fleet's exact dispatch counts.
func (f *fleet) layers(ctx context.Context, seed uint64, m map[string]float64, traced passResult) (map[string]float64, passResult) {
	short := &tracer{}
	sp := f.passAt(ctx, f.horizon*2/5, seed, short)
	shortRep := rollupSpans(short.allSpans()).get("cluster.Replicate").mean().Seconds()
	e1 := ratio(float64(traced.counters.Events), float64(traced.attempted()))
	e0 := ratio(float64(sp.counters.Events), float64(sp.attempted()))
	perEvent := ratio(m["cluster.replicate_s"]-shortRep, e1-e0)
	out := map[string]float64{
		"cluster.per_event_ns":   perEvent * 1e9,
		"cluster.fixed_ms":       (m["cluster.replicate_s"] - perEvent*e1) * 1e3,
		"cluster.dispatches":     float64(traced.counters.Dispatches),
		"cluster.migrations":     float64(traced.counters.Migrations),
		"cluster.dispatch_ratio": ratio(float64(traced.counters.Dispatches), float64(f.arrivals()*traced.attempted())),
	}
	for _, cr := range traced.cells {
		out["cluster.queued_at_end"] += float64(int64(cr.sum.Mean(cluster.QueuedAtEndMetric)*float64(cr.sum.Replications) + 0.5))
	}
	return out, sp
}
