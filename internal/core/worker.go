package core

import (
	"context"
	"fmt"
	"maps"
	"time"

	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
)

// Worker is the compile-once, run-many replication executive for one
// experiment cell: the system model is built and compiled once
// (NewWorker), and each replication then only reseeds the workload
// streams, constructs a fresh scheduler, and resets the pooled
// san.Instance — skipping the per-replication model-construction and
// incidence-compilation bill entirely. Results are bit-identical to
// building everything fresh per replication (RunReplication*): the reseed
// replays the fresh build's RNG draw order exactly.
//
// A Worker is not goroutine-safe — the compiled model's marking is shared
// mutable state — so replications through one Worker must run serially.
// For parallel replications give each worker goroutine its own Worker
// (sim.RunPooled does exactly that).
type Worker struct {
	sys     *System
	inst    *san.Instance
	factory SchedulerFactory
	src     *rng.Source
}

// NewWorker builds and compiles the system for cfg once. The returned
// worker runs any number of replications, each a pure function of its
// seed.
func NewWorker(cfg SystemConfig, factory SchedulerFactory) (*Worker, error) {
	if factory == nil {
		return nil, fmt.Errorf("core: nil scheduler factory")
	}
	// The build-time source is a placeholder: RunIntervalContext reseeds
	// every stream from the replication seed before anything is sampled.
	src := rng.New(0)
	sys, err := BuildSystem(cfg, factory(), src)
	if err != nil {
		return nil, err
	}
	prog, err := san.Compile(sys.Model())
	if err != nil {
		return nil, err
	}
	inst, err := prog.NewInstance()
	if err != nil {
		return nil, err
	}
	// Honor the plan's Disabled flags once: the administrative disable
	// persists across Reset, covering every replication.
	if err := sys.ArmInstance(inst); err != nil {
		return nil, err
	}
	return &Worker{sys: sys, inst: inst, factory: factory, src: src}, nil
}

// System returns the worker's compiled system. Its marking reflects the
// last replication run; callers must not mutate it.
func (w *Worker) System() *System { return w.sys }

// Program returns the compiled SAN program the worker executes (activity
// names for per-activity stats, model access).
func (w *Worker) Program() *san.Program { return w.inst.Program() }

// SetClock injects a monotonic wall clock (obs.Clock) into the pooled
// instance so LastStats reports wall time and events/s; nil disables.
func (w *Worker) SetClock(fn func() time.Duration) { w.inst.SetClock(fn) }

// EnableActivityStats turns on the pooled instance's per-activity firing
// counters (indexed like Program().ActivityNames()).
func (w *Worker) EnableActivityStats() { w.inst.EnableActivityStats() }

// LastStats returns the engine counters of the most recent replication
// (counters reset at the start of each one).
func (w *Worker) LastStats() san.Stats { return w.inst.Stats() }

// SetFaultSink installs a telemetry sink receiving fault.inject /
// fault.recover spans from the system's fault injector; nil removes it.
// No-op on a system without a fault plan.
func (w *Worker) SetFaultSink(s obs.Sink) {
	if w.sys.inj != nil {
		w.sys.inj.SetSink(s)
	}
}

// RunIntervalContext executes one replication seeded with seed, measuring
// rewards over [warmup, horizon] and honoring ctx cancellation. It is the
// pooled equivalent of RunReplicationIntervalContext with the same
// arguments, bit for bit.
func (w *Worker) RunIntervalContext(ctx context.Context, warmup, horizon float64, seed uint64) (map[string]float64, error) {
	if err := w.Arm(seed); err != nil {
		return nil, err
	}
	res, err := w.inst.RunIntervalContext(ctx, warmup, horizon)
	if err != nil {
		return nil, err
	}
	return w.assemble(res), nil
}

// Arm prepares the worker for one replication seeded with seed — the
// reseed-and-reset half of RunIntervalContext, bit for bit — without
// running it. An external driver (the cluster orchestrator) then starts
// the run itself via Instance().BeginRun, steps events through the step
// primitives, and finishes with Collect.
func (w *Worker) Arm(seed uint64) error {
	w.src.Reseed(seed)
	if err := w.sys.Reseed(w.factory(), w.src); err != nil {
		return err
	}
	w.inst.Reset(w.src.Uint64())
	return nil
}

// Collect finishes an externally driven replication: it ends the run
// started on the worker's instance and assembles the same metric map
// RunIntervalContext produces, including derived fault metrics and
// histogram quantiles.
func (w *Worker) Collect() (map[string]float64, error) {
	res, err := w.inst.EndRun()
	if err != nil {
		return nil, err
	}
	return w.assemble(res), nil
}

// assemble folds one replication's Results into the flat metric map all
// run paths share.
func (w *Worker) assemble(res san.Results) map[string]float64 {
	out := make(map[string]float64, len(res.Rates)+len(res.Impulses))
	maps.Copy(out, res.Rates)
	maps.Copy(out, res.Impulses)
	if w.sys.cfg.Faults != nil {
		deriveFaultMetrics(out, w.sys.cfg.Faults)
	}
	if w.sys.hist != nil {
		addHistMetrics(out, w.sys.hist)
	}
	return out
}

// deriveFaultMetrics folds per-spec fault impulses into campaign totals
// and computes the derived dependability metrics: availability-under-
// faults (mean availability conditioned on being degraded) and MTTR
// (mean ticks from PCPU restart to its first re-assignment).
func deriveFaultMetrics(out map[string]float64, plan *faults.Plan) {
	var injects, recovers, lost float64
	for i := range plan.Faults {
		name := plan.Faults[i].Name
		injects += out[faults.SpecInjectsMetric(name)]
		recovers += out[faults.SpecRecoversMetric(name)]
		lost += out[faults.SpecWorkLostMetric(name)]
	}
	out[faults.InjectsMetric] = injects
	out[faults.RecoversMetric] = recovers
	out[faults.WorkLostMetric] = lost
	if deg := out[faults.DegradedMetric]; deg > 0 {
		out[faults.AvailUnderFaultsMetric] = out[faults.AvailDegradedMetric] / deg
	} else {
		// Never degraded in the window: availability under faults is
		// plain availability.
		out[faults.AvailUnderFaultsMetric] = out[AvailabilityAvgMetric]
	}
	if rs := out[faults.ReseatsMetric]; rs > 0 {
		out[faults.MTTRMetric] = out[faults.RecoveryTicksMetric] / rs
	} else {
		out[faults.MTTRMetric] = 0
	}
}

// Run executes one replication over [0, horizon] with the given seed.
func (w *Worker) Run(horizon float64, seed uint64) (map[string]float64, error) {
	return w.RunIntervalContext(context.Background(), 0, horizon, seed)
}
