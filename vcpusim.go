// Package vcpusim is a simulation framework for evaluating virtual CPU
// (VCPU) scheduling algorithms, reproducing "A Simulation Framework to
// Evaluate Virtual CPU Scheduling Algorithms" (Pham, Li, Estrada,
// Kalbarczyk, Iyer — IEEE ICDCS Workshops 2013).
//
// A virtualization system is assembled from configuration — physical CPUs,
// a hypervisor timeslice, and virtual machines, each with a number of
// VCPUs and a stochastic workload characterization — and simulated under a
// pluggable VCPU scheduling algorithm. Three algorithms from the paper
// ship ready-made (Round-Robin, Strict Co-Scheduling, Relaxed
// Co-Scheduling) plus two extensions (Balance scheduling and a
// proportional-share Credit scheduler), and any user algorithm can be
// plugged in by implementing the Scheduler interface — the Go counterpart
// of the paper's C function-call interface.
//
// Two interchangeable engines execute the model: a Stochastic Activity
// Network engine that mirrors the paper's Möbius-based composed models,
// and a direct tick-loop engine cross-validated to produce bit-identical
// results. The Experiment runner executes confidence-interval controlled
// replications (95 % confidence, <0.1 relative half-width, as in the
// paper).
//
// Quickstart:
//
//	cfg := vcpusim.SystemConfig{
//		PCPUs:     4,
//		Timeslice: 30,
//		VMs: []vcpusim.VMConfig{
//			{Name: "web", VCPUs: 2, Workload: vcpusim.WorkloadSpec{
//				Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 5}},
//		},
//	}
//	metrics, err := vcpusim.Run(cfg, vcpusim.RoundRobin(30), 20000, 1)
//
// See the examples directory for complete programs.
package vcpusim

import (
	"context"
	"io"

	"vcpusim/internal/core"
	"vcpusim/internal/experiments"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs/timeline"
	"vcpusim/internal/report"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/sim"
	"vcpusim/internal/stats"
	"vcpusim/internal/workload"
)

// Core model types.
type (
	// SystemConfig describes a complete virtualization system.
	SystemConfig = core.SystemConfig
	// VMConfig describes one virtual machine.
	VMConfig = core.VMConfig
	// WorkloadSpec parameterizes a VM's workload generator.
	WorkloadSpec = workload.Spec
	// Workload is one generated unit of work.
	Workload = workload.Workload

	// Scheduler is the pluggable VCPU scheduling algorithm interface (the
	// paper's C function-call interface).
	Scheduler = core.Scheduler
	// SchedulerFactory constructs a fresh Scheduler per replication.
	SchedulerFactory = core.SchedulerFactory
	// VCPUView is the per-VCPU state passed to scheduling functions.
	VCPUView = core.VCPUView
	// PCPUView is the per-PCPU state passed to scheduling functions.
	PCPUView = core.PCPUView
	// Actions records a scheduling function's decisions.
	Actions = core.Actions
	// Status is a VCPU state (Inactive, Ready, or Busy).
	Status = core.Status
)

// VCPU states.
const (
	Inactive = core.Inactive
	Ready    = core.Ready
	Busy     = core.Busy
)

// SyncKind selects a VM's synchronization mechanism.
type SyncKind = workload.SyncKind

// Synchronization mechanisms: the paper's barrier, and the spinlock
// (lock-holder-preemption) extension.
const (
	SyncBarrier  = workload.SyncBarrier
	SyncSpinlock = workload.SyncSpinlock
)

// Workload-duration distributions.
type (
	// Distribution produces random load durations.
	Distribution = rng.Distribution
	// Deterministic is a constant distribution.
	Deterministic = rng.Deterministic
	// Uniform is the continuous uniform distribution on [Low, High).
	Uniform = rng.Uniform
	// Exponential is the exponential distribution with the given rate.
	Exponential = rng.Exponential
	// Erlang is a sum of K exponentials.
	Erlang = rng.Erlang
	// Normal is the normal distribution.
	Normal = rng.Normal
	// LogNormal is the log-normal distribution.
	LogNormal = rng.LogNormal
	// Geometric counts trials to first success.
	Geometric = rng.Geometric
)

// Simulation and reporting types.
type (
	// SimOptions controls replications and CI-based stopping.
	SimOptions = sim.Options
	// Summary aggregates an experiment's replications.
	Summary = sim.Summary
	// Interval is a confidence interval.
	Interval = stats.Interval
	// Table is a rendered experiment result.
	Table = report.Table
	// Recorder is one replication's scheduling timeline (see RunTraced):
	// its Gantt method renders PCPU occupancy, WriteJSON a Chrome trace.
	Recorder = timeline.Tracker
	// ExperimentParams parameterizes the paper-figure regenerators.
	ExperimentParams = experiments.Params
)

// Built-in schedulers. Each call returns a factory producing a fresh
// algorithm instance per replication.

// RoundRobin is the paper's RRS: a global fair rotation of VCPUs.
func RoundRobin(timeslice int64) SchedulerFactory {
	return func() Scheduler { return sched.NewRoundRobin(timeslice) }
}

// StrictCo is the paper's SCS: gang scheduling with all-or-nothing
// co-starts and co-stops per VM.
func StrictCo(timeslice int64) SchedulerFactory {
	return func() Scheduler { return sched.NewStrictCo(timeslice) }
}

// RelaxedCoParams configures the relaxed co-scheduler.
type RelaxedCoParams = sched.RelaxedCoParams

// RelaxedCo is the paper's RCS: best-effort co-scheduling with a
// skew-threshold forced-co-start regime.
func RelaxedCo(p RelaxedCoParams) SchedulerFactory {
	return func() Scheduler { return sched.NewRelaxedCo(p) }
}

// Balance is the VCPU-stacking-avoidance scheduler of Sukwong & Kim
// (extension beyond the paper).
func Balance(timeslice int64) SchedulerFactory {
	return func() Scheduler { return sched.NewBalance(timeslice) }
}

// CreditParams configures the proportional-share scheduler.
type CreditParams = sched.CreditParams

// HybridParams configures the hybrid scheduler.
type HybridParams = sched.HybridParams

// Hybrid is the hybrid scheduling framework of Weng et al. (the paper's
// related work [7]): listed VMs are gang-scheduled, the rest are scheduled
// per-VCPU (extension beyond the paper).
func Hybrid(p HybridParams) SchedulerFactory {
	return func() Scheduler { return sched.NewHybrid(p) }
}

// Credit is a proportional-share scheduler in the spirit of Xen's credit
// scheduler (extension beyond the paper).
func Credit(p CreditParams) SchedulerFactory {
	return func() Scheduler { return sched.NewCredit(p) }
}

// SchedulerByName resolves a registered algorithm name ("RRS", "SCS",
// "RCS", "Balance", "Credit") with shared parameters.
func SchedulerByName(name string, p SchedParams) (SchedulerFactory, error) {
	return sched.Factory(name, p)
}

// SchedParams carries the knobs shared by the built-in algorithms.
type SchedParams = sched.Params

// Run simulates one replication of cfg under the scheduler on the fast
// engine for horizon ticks and returns the reward metrics (see
// MetricNames for the naming scheme).
func Run(cfg SystemConfig, factory SchedulerFactory, horizon int64, seed uint64) (map[string]float64, error) {
	return fastsim.RunReplication(cfg, factory, horizon, seed)
}

// RunSAN simulates one replication on the Stochastic Activity Network
// engine — the paper's modeling substrate — producing the same metrics as
// Run (the engines are cross-validated to agree exactly).
func RunSAN(cfg SystemConfig, factory SchedulerFactory, horizon int64, seed uint64) (map[string]float64, error) {
	return core.RunReplication(cfg, factory, float64(horizon), seed)
}

// RunTraced simulates one replication on the fast engine with a
// timeline recorder attached, returning the metrics and the finished
// per-entity scheduling timeline.
func RunTraced(cfg SystemConfig, factory SchedulerFactory, horizon int64, seed uint64) (map[string]float64, *Recorder, error) {
	eng, err := fastsim.New(cfg, factory(), seed)
	if err != nil {
		return nil, nil, err
	}
	rec := timeline.New(eng)
	eng.SetTickHook(func(now int64) { rec.Observe(float64(now)) })
	metrics, err := eng.Run(horizon)
	if err != nil {
		return nil, nil, err
	}
	rec.Finish(float64(horizon))
	return metrics, rec, nil
}

// RunInterval is Run with transient removal: it simulates horizon ticks
// but measures metrics over [warmup, horizon) only.
func RunInterval(cfg SystemConfig, factory SchedulerFactory, warmup, horizon int64, seed uint64) (map[string]float64, error) {
	return fastsim.RunReplicationInterval(cfg, factory, warmup, horizon, seed)
}

// RunWindowed simulates one long run (after a warmup prefix) and returns
// the metrics of every consecutive window of the given length — the input
// to BatchMeans for single-run steady-state estimation.
func RunWindowed(cfg SystemConfig, factory SchedulerFactory, warmup, horizon, window int64, seed uint64) ([]map[string]float64, error) {
	eng, err := fastsim.New(cfg, factory(), seed)
	if err != nil {
		return nil, err
	}
	return eng.RunWindowed(warmup, horizon, window)
}

// BatchMeans estimates steady-state metrics from the windows of one long
// run (the method of batch means); see RunWindowed.
func BatchMeans(windows []map[string]float64, level float64) (Summary, error) {
	return sim.BatchMeans(windows, level)
}

// Replicate runs confidence-interval controlled replications of cfg under
// the scheduler (95 % confidence, <0.1 relative half-width by default, the
// paper's settings) and returns per-metric intervals.
func Replicate(ctx context.Context, cfg SystemConfig, factory SchedulerFactory, horizon int64, opts SimOptions) (Summary, error) {
	rep := func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return fastsim.RunReplication(cfg, factory, horizon, seed)
	}
	return sim.Run(ctx, rep, opts)
}

// Metric names for the Run/Replicate result maps.

// AvailabilityMetric names the per-VCPU availability metric (fraction of
// time ACTIVE) for VCPU sibling of VM vm (both zero-based).
func AvailabilityMetric(vm, sibling int) string { return core.AvailabilityMetric(vm, sibling) }

// VCPUUtilizationMetric names the per-VCPU utilization metric (fraction of
// time BUSY).
func VCPUUtilizationMetric(vm, sibling int) string { return core.VCPUUtilizationMetric(vm, sibling) }

// PCPUUtilizationMetric names the per-PCPU utilization metric (fraction of
// time ASSIGNED).
func PCPUUtilizationMetric(p int) string { return core.PCPUUtilizationMetric(p) }

// Aggregate metric names.
const (
	AvailabilityAvgMetric      = core.AvailabilityAvgMetric
	VCPUUtilizationAvgMetric   = core.VCPUUtilizationAvgMetric
	PCPUUtilizationAvgMetric   = core.PCPUUtilizationAvgMetric
	BlockedFractionMetric      = core.BlockedFractionMetric
	SpinFractionMetric         = core.SpinFractionMetric
	EffectiveUtilizationMetric = core.EffectiveUtilizationMetric
)

// Paper-figure regenerators (see EXPERIMENTS.md).

// DefaultExperimentParams returns the parameterization used for
// EXPERIMENTS.md.
func DefaultExperimentParams() ExperimentParams { return experiments.Defaults() }

// Figure8 regenerates the paper's Figure 8 (VCPU availability/fairness).
func Figure8(ctx context.Context, p ExperimentParams) (*Table, error) {
	return experiments.Figure8(ctx, p)
}

// Figure9 regenerates the paper's Figure 9 (PCPU utilization).
func Figure9(ctx context.Context, p ExperimentParams) (*Table, error) {
	return experiments.Figure9(ctx, p)
}

// Figure10 regenerates the paper's Figure 10 (VCPU utilization vs sync
// rate), returning the scheduled-time and total-time normalizations.
func Figure10(ctx context.Context, p ExperimentParams) (efficiency, absolute *Table, err error) {
	return experiments.Figure10(ctx, p)
}

// Fault injection (dependability evaluation on the SAN engine): set
// SystemConfig.Faults to a FaultPlan and run with RunSAN or the SAN-backed
// Replicate path. See examples/faultcampaign.

// Fault-injection types.
type (
	// FaultPlan is a declarative fault-injection campaign.
	FaultPlan = faults.Plan
	// FaultSpec is one fault event source of a campaign.
	FaultSpec = faults.Spec
	// FaultDist is a fault-timing distribution (deterministic, uniform,
	// exponential, or erlang).
	FaultDist = faults.Dist
)

// Fault kinds.
const (
	FaultPCPUCrash   = faults.KindPCPUCrash
	FaultPCPUSlow    = faults.KindPCPUSlow
	FaultVCPUStall   = faults.KindVCPUStall
	FaultMisdecision = faults.KindMisdecision
)

// Dependability metric names produced by fault-injected replications.
const (
	FaultDegradedMetric         = faults.DegradedMetric
	FaultCapacityMetric         = faults.CapacityMetric
	FaultAvailUnderFaultsMetric = faults.AvailUnderFaultsMetric
	FaultMTTRMetric             = faults.MTTRMetric
	FaultInjectsMetric          = faults.InjectsMetric
	FaultRecoversMetric         = faults.RecoversMetric
	FaultWorkLostMetric         = faults.WorkLostMetric
	FaultMisdecisionsMetric     = faults.MisdecisionsMetric
)

// ParseFaultPlan reads a fault-injection campaign from JSON: either
// {"faults": [...]} or a bare spec array.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.Parse(r) }

// BuildModel composes the Stochastic Activity Network model of cfg without
// running it, for inspection or DOT export via Model().Dot().
func BuildModel(cfg SystemConfig, factory SchedulerFactory, seed uint64) (*core.System, error) {
	return core.BuildSystem(cfg, factory(), rng.New(seed))
}

// SANModel is the composed Stochastic Activity Network model type returned
// by BuildModel().Model().
type SANModel = san.Model
