// Package fastsim is a second, independent implementation of the
// framework's model semantics that bypasses the SAN machinery: plain
// structs and a hand-rolled tick loop instead of places, gates, and
// activities. It exists for two reasons:
//
//   - Fidelity: the paper's discussion section calls out "evaluating the
//     fidelity of the model" as open work. Running the same configuration
//     through two engines that share only the documented tick semantics
//     and asserting identical trajectories is the strongest check this
//     repository can offer (see the cross-validation tests).
//   - Speed: parameter sweeps and property tests run an order of magnitude
//     faster on the direct engine.
//
// The per-tick ordering is the canonical one from DESIGN.md: process →
// VM job flow → hypervisor (timeslice accounting, expiry, scheduling
// function) → job flow again → reward sampling. Given the same seed, the
// fast engine and the SAN engine produce bit-identical reward values.
package fastsim

import (
	"fmt"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/workload"
)

// vcpuState is the merged VM-side and hypervisor-side state of one VCPU.
type vcpuState struct {
	vm      int
	sibling int

	status        core.Status
	remainingLoad int64
	syncPoint     bool

	pcpu      int
	timeslice int64
	lastIn    int64
	runtime   int64
}

// vmState is the job-flow state of one VM.
type vmState struct {
	syncKind workload.SyncKind
	blocked  bool
	numReady int
	gen      *workload.Generator
	vcpus    []int // global VCPU ids, sibling order

	// pending is the workload generated but not yet dispatched, held by
	// value so a dispatch does not allocate; valid while hasPending.
	pending    workload.Workload
	hasPending bool

	jobs     int64 // workloads dispatched (in the measured window)
	unblocks int64 // barrier releases (in the measured window)
}

// Engine simulates one replication. Construct with New; single-use.
type Engine struct {
	cfg   core.SystemConfig
	sched core.Scheduler
	vcpus []vcpuState
	vms   []vmState
	pcpus []int // VCPU per PCPU, -1 idle

	now int64

	// warmup is the transient prefix excluded from the rewards.
	warmup int64

	// Reward accumulators: ticks in state, keyed like the SAN metrics.
	activeTicks  []int64
	busyTicks    []int64
	pcpuTicks    []int64
	blockedTicks int64
	spinTicks    int64
	workTicks    int64
	sampled      int64

	// Engine counters (see Stats): plain increments, always on.
	schedIns  int64
	schedOuts int64

	// Tracer, if any, observes schedule-in/out transitions.
	tracer Tracer

	// Per-tick scratch refilled in place, as core.System's scheduler step
	// does: the views handed to the scheduler, its Actions accumulator,
	// and process's per-VM spinlock-preemption mask.
	views     []core.VCPUView
	pviews    []core.PCPUView
	acts      core.Actions
	preempted []bool
}

// Stats is the fast engine's counter snapshot, the tick-loop counterpart
// of san.Stats: sampled ticks stand in for kernel events, and job-flow
// completions (dispatches plus barrier releases) for activity firings.
// Jobs and Unblocks count inside the measurement window only, matching
// the JobsMetric/UnblocksMetric rewards.
type Stats struct {
	// Ticks is the number of sampled (post-warmup) ticks.
	Ticks int64
	// Jobs is the number of workloads dispatched across all VMs.
	Jobs int64
	// Unblocks is the number of barrier releases across all VMs.
	Unblocks int64
	// ScheduleIns / ScheduleOuts count PCPU grants and revocations over
	// the whole run (not warmup-windowed).
	ScheduleIns  int64
	ScheduleOuts int64
}

// Stats returns the engine counters accumulated so far. Call after Run;
// a single-use engine never resets them.
func (e *Engine) Stats() Stats {
	s := Stats{Ticks: e.sampled, ScheduleIns: e.schedIns, ScheduleOuts: e.schedOuts}
	for vi := range e.vms {
		s.Jobs += e.vms[vi].jobs
		s.Unblocks += e.vms[vi].unblocks
	}
	return s
}

// Tracer observes scheduling transitions in the fast engine; see the trace
// package for implementations.
type Tracer interface {
	// ScheduleIn is called when a VCPU is granted a PCPU at tick now.
	ScheduleIn(now int64, vcpu, pcpu int)
	// ScheduleOut is called when a VCPU relinquishes its PCPU at tick
	// now; expired distinguishes timeslice expiry from preemption.
	ScheduleOut(now int64, vcpu, pcpu int, expired bool)
	// JobComplete is called when a VCPU finishes a workload.
	JobComplete(now int64, vcpu int, sync bool)
}

// New builds a fast engine for one replication. The seed derives the
// workload-generator streams exactly as core.BuildSystem does, so the same
// (cfg, scheduler behaviour, seed) triple yields the same workload
// sequence on both engines.
func New(cfg core.SystemConfig, sched core.Scheduler, seed uint64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, fmt.Errorf("fastsim: nil scheduler")
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("fastsim: fault plans require the SAN engine")
	}
	src := rng.New(seed)
	// Every per-VCPU slice is allocated at its final size, the VMs'
	// id lists and the three tick counters each share one backing array:
	// engine set-up is a per-cell cost of every experiment grid.
	n := cfg.TotalVCPUs()
	e := &Engine{
		cfg: cfg, sched: sched,
		vcpus: make([]vcpuState, 0, n),
		vms:   make([]vmState, 0, len(cfg.VMs)),
	}
	ids := make([]int, n)
	for i, vmCfg := range cfg.VMs {
		gen, err := workload.NewGenerator(vmCfg.Workload, src.Split())
		if err != nil {
			return nil, fmt.Errorf("fastsim: VM %d: %w", i, err)
		}
		first := len(e.vcpus)
		vm := vmState{gen: gen, syncKind: vmCfg.Workload.SyncKind, vcpus: ids[first : first+vmCfg.VCPUs]}
		for k := range vm.vcpus {
			vm.vcpus[k] = len(e.vcpus)
			e.vcpus = append(e.vcpus, vcpuState{
				vm: i, sibling: k,
				status: core.Inactive, pcpu: -1, lastIn: -1,
			})
		}
		e.vms = append(e.vms, vm)
	}
	e.pcpus = make([]int, cfg.PCPUs)
	for i := range e.pcpus {
		e.pcpus[i] = -1
	}
	ticks := make([]int64, 2*n+cfg.PCPUs)
	e.activeTicks, e.busyTicks, e.pcpuTicks = ticks[:n:n], ticks[n:2*n:2*n], ticks[2*n:]
	return e, nil
}

// SetTracer attaches a tracer; pass nil to detach.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Run simulates horizon ticks and returns the reward values keyed exactly
// like the SAN engine's metrics.
func (e *Engine) Run(horizon int64) (map[string]float64, error) {
	return e.RunInterval(0, horizon)
}

// RunInterval simulates horizon ticks but measures rewards over
// [warmup, horizon) only, discarding the initial transient — the
// counterpart of the SAN runner's RunInterval.
func (e *Engine) RunInterval(warmup, horizon int64) (map[string]float64, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("fastsim: non-positive horizon %d", horizon)
	}
	if warmup < 0 || warmup >= horizon {
		return nil, fmt.Errorf("fastsim: warmup %d outside [0, horizon %d)", warmup, horizon)
	}
	e.warmup = warmup
	// t=0: the initial hypervisor invocation (the SAN model's initial
	// HV_Tick token), then job flow for freshly scheduled VCPUs.
	if err := e.hypervisorStep(); err != nil {
		return nil, err
	}
	e.jobFlow()
	e.sample()
	e.now++

	for ; e.now < horizon; e.now++ {
		e.process()
		e.jobFlow()
		if err := e.hypervisorStep(); err != nil {
			return nil, err
		}
		e.jobFlow()
		e.sample()
	}
	return e.results(), nil
}

// process advances every BUSY VCPU's workload by one tick. Under the
// spinlock extension, BUSY VCPUs whose VM's lock holder is descheduled spin
// without progress (an inactive holder cannot complete mid-step, so the
// per-VM predicate is stable across the loop).
func (e *Engine) process() {
	preempted := e.preempted
	for vi := range e.vms {
		preempted[vi] = e.vms[vi].syncKind == workload.SyncSpinlock && e.lockHolderPreempted(vi)
	}
	for id := range e.vcpus {
		v := &e.vcpus[id]
		if v.status != core.Busy {
			continue
		}
		if preempted[v.vm] && !(v.syncPoint && v.remainingLoad > 0) {
			continue // spinning
		}
		v.remainingLoad--
		if v.remainingLoad <= 0 {
			v.remainingLoad = 0
			wasSync := v.syncPoint
			v.syncPoint = false
			v.status = core.Ready
			e.vms[v.vm].numReady++
			if e.tracer != nil {
				e.tracer.JobComplete(e.now, id, wasSync)
			}
		}
	}
}

// jobFlow runs each VM's workload generator and job scheduler to fixpoint,
// mirroring the SAN model's instantaneous activities: unblock if the
// barrier cleared, generate into the pending slot when a READY VCPU exists,
// dispatch the pending workload unless the spinlock gate holds it back.
func (e *Engine) jobFlow() {
	for vi := range e.vms {
		vm := &e.vms[vi]
		for done := false; !done; {
			progress := false
			if vm.blocked && e.allDrained(vm) {
				vm.blocked = false
				if e.now >= e.warmup {
					vm.unblocks++
				}
				progress = true
			}
			if !vm.hasPending && !vm.blocked && vm.numReady > 0 {
				vm.pending = vm.gen.Next()
				vm.hasPending = true
				progress = true
			}
			if vm.hasPending && vm.numReady > 0 && e.dispatchable(vi) {
				e.dispatch(vm, vm.pending)
				if e.now >= e.warmup {
					vm.jobs++
				}
				vm.hasPending = false
				progress = true
			}
			done = !progress
		}
	}
}

// dispatchable applies the spinlock gate: a lock workload waits while
// another lock workload is in flight.
func (e *Engine) dispatchable(vi int) bool {
	vm := &e.vms[vi]
	if vm.syncKind != workload.SyncSpinlock || !vm.pending.Sync {
		return true
	}
	return !e.hasInFlightSync(vi)
}

// hasInFlightSync reports whether a sync workload is being processed or
// held by a descheduled VCPU of VM vi.
func (e *Engine) hasInFlightSync(vi int) bool {
	for _, id := range e.vms[vi].vcpus {
		v := &e.vcpus[id]
		if v.syncPoint && v.remainingLoad > 0 {
			return true
		}
	}
	return false
}

// lockHolderPreempted reports whether VM vi's in-flight lock holder is
// descheduled.
func (e *Engine) lockHolderPreempted(vi int) bool {
	for _, id := range e.vms[vi].vcpus {
		v := &e.vcpus[id]
		if v.syncPoint && v.remainingLoad > 0 && v.status == core.Inactive {
			return true
		}
	}
	return false
}

// spinning reports whether VCPU id is burning its PCPU on a preempted
// spinlock.
func (e *Engine) spinning(id int) bool {
	v := &e.vcpus[id]
	if e.vms[v.vm].syncKind != workload.SyncSpinlock || v.status != core.Busy {
		return false
	}
	if v.syncPoint && v.remainingLoad > 0 {
		return false
	}
	return e.lockHolderPreempted(v.vm)
}

// allDrained reports whether every VCPU of the VM finished its load.
func (e *Engine) allDrained(vm *vmState) bool {
	for _, id := range vm.vcpus {
		if e.vcpus[id].remainingLoad > 0 {
			return false
		}
	}
	return true
}

// dispatch assigns a workload to the lowest-sibling READY VCPU.
func (e *Engine) dispatch(vm *vmState, w workload.Workload) {
	for _, id := range vm.vcpus {
		v := &e.vcpus[id]
		if v.status != core.Ready {
			continue
		}
		v.remainingLoad = w.Load
		v.syncPoint = w.Sync
		v.status = core.Busy
		vm.numReady--
		break
	}
	if w.Sync && vm.syncKind == workload.SyncBarrier {
		vm.blocked = true
	}
}

// hypervisorStep charges runtime, expires timeslices, and invokes the
// plugged-in scheduling function.
func (e *Engine) hypervisorStep() error {
	if e.now > 0 {
		for id := range e.vcpus {
			v := &e.vcpus[id]
			if v.pcpu < 0 {
				continue
			}
			v.runtime++
			v.timeslice--
			if v.timeslice <= 0 {
				e.scheduleOut(id, true)
			}
		}
	}

	if e.views == nil {
		// Sized at the first tick rather than in New, so building an
		// engine costs no more than its model state. Every run loop
		// starts with this step, so process finds preempted sized too.
		e.views = make([]core.VCPUView, len(e.vcpus))
		e.pviews = make([]core.PCPUView, len(e.pcpus))
		e.preempted = make([]bool, len(e.vms))
	}
	views := e.views
	for id := range e.vcpus {
		v := &e.vcpus[id]
		views[id] = core.VCPUView{
			ID:              id,
			VM:              v.vm,
			Sibling:         v.sibling,
			Status:          v.status,
			RemainingLoad:   v.remainingLoad,
			SyncPoint:       v.syncPoint,
			PCPU:            v.pcpu,
			Timeslice:       v.timeslice,
			LastScheduledIn: v.lastIn,
			Runtime:         v.runtime,
		}
	}
	pviews := e.pviews
	for i, v := range e.pcpus {
		pviews[i] = core.PCPUView{ID: i, VCPU: v}
	}

	e.acts.Reset()
	e.sched.Schedule(e.now, views, pviews, &e.acts)
	return e.apply(&e.acts)
}

// scheduleOut transitions a VCPU to INACTIVE, freeing its PCPU.
func (e *Engine) scheduleOut(id int, expired bool) {
	v := &e.vcpus[id]
	p := v.pcpu
	e.pcpus[p] = -1
	v.pcpu = -1
	v.timeslice = 0
	if v.status == core.Ready {
		e.vms[v.vm].numReady--
	}
	v.status = core.Inactive
	e.schedOuts++
	if e.tracer != nil {
		e.tracer.ScheduleOut(e.now, id, p, expired)
	}
}

// apply validates and applies the scheduling function's decisions:
// preemptions first, then assignments — mirroring core.System.
func (e *Engine) apply(acts *core.Actions) error {
	assigns, preempts := acts.Recorded()
	for _, id := range preempts {
		if id < 0 || id >= len(e.vcpus) {
			return fmt.Errorf("fastsim: scheduler %q preempted unknown VCPU %d", e.sched.Name(), id)
		}
		if e.vcpus[id].pcpu < 0 {
			return fmt.Errorf("fastsim: scheduler %q preempted inactive VCPU %d", e.sched.Name(), id)
		}
		e.scheduleOut(id, false)
	}
	for _, a := range assigns {
		switch {
		case a.VCPU < 0 || a.VCPU >= len(e.vcpus):
			return fmt.Errorf("fastsim: scheduler %q assigned unknown VCPU %d", e.sched.Name(), a.VCPU)
		case a.PCPU < 0 || a.PCPU >= len(e.pcpus):
			return fmt.Errorf("fastsim: scheduler %q assigned unknown PCPU %d", e.sched.Name(), a.PCPU)
		case a.Timeslice < 1:
			return fmt.Errorf("fastsim: scheduler %q assigned non-positive timeslice %d", e.sched.Name(), a.Timeslice)
		case e.vcpus[a.VCPU].pcpu >= 0:
			return fmt.Errorf("fastsim: scheduler %q double-assigned VCPU %d", e.sched.Name(), a.VCPU)
		case e.pcpus[a.PCPU] >= 0:
			return fmt.Errorf("fastsim: scheduler %q assigned busy PCPU %d", e.sched.Name(), a.PCPU)
		}
		v := &e.vcpus[a.VCPU]
		e.pcpus[a.PCPU] = a.VCPU
		v.pcpu = a.PCPU
		v.timeslice = a.Timeslice
		v.lastIn = e.now
		if v.remainingLoad > 0 {
			v.status = core.Busy
		} else {
			v.status = core.Ready
			e.vms[v.vm].numReady++
		}
		e.schedIns++
		if e.tracer != nil {
			e.tracer.ScheduleIn(e.now, a.VCPU, a.PCPU)
		}
	}
	return nil
}

// sample accumulates one tick of state occupancy (ticks before the warmup
// point are discarded).
func (e *Engine) sample() {
	if e.now < e.warmup {
		return
	}
	for id := range e.vcpus {
		switch e.vcpus[id].status {
		case core.Busy:
			e.busyTicks[id]++
			e.activeTicks[id]++
			if e.spinning(id) {
				e.spinTicks++
			} else {
				e.workTicks++
			}
		case core.Ready:
			e.activeTicks[id]++
		}
	}
	for p, v := range e.pcpus {
		if v >= 0 {
			e.pcpuTicks[p]++
		}
	}
	for vi := range e.vms {
		if e.vms[vi].blocked {
			e.blockedTicks++
		}
	}
	e.sampled++
}

// results converts tick counts to time-averaged metrics keyed like the SAN
// engine's reward variables.
func (e *Engine) results() map[string]float64 {
	t := float64(e.sampled)
	out := make(map[string]float64, 2*len(e.vcpus)+len(e.pcpus)+4)
	var sumActive, sumBusy, sumPCPU float64
	for id := range e.vcpus {
		v := &e.vcpus[id]
		avail := float64(e.activeTicks[id]) / t
		busy := float64(e.busyTicks[id]) / t
		out[core.AvailabilityMetric(v.vm, v.sibling)] = avail
		out[core.VCPUUtilizationMetric(v.vm, v.sibling)] = busy
		sumActive += avail
		sumBusy += busy
	}
	for p := range e.pcpus {
		u := float64(e.pcpuTicks[p]) / t
		out[core.PCPUUtilizationMetric(p)] = u
		sumPCPU += u
	}
	out[core.AvailabilityAvgMetric] = sumActive / float64(len(e.vcpus))
	out[core.VCPUUtilizationAvgMetric] = sumBusy / float64(len(e.vcpus))
	out[core.PCPUUtilizationAvgMetric] = sumPCPU / float64(len(e.pcpus))
	out[core.BlockedFractionMetric] = float64(e.blockedTicks) / t / float64(len(e.vms))
	out[core.SpinFractionMetric] = float64(e.spinTicks) / t / float64(len(e.vcpus))
	out[core.EffectiveUtilizationMetric] = float64(e.workTicks) / t / float64(len(e.vcpus))
	for vi := range e.vms {
		out[core.JobsMetric(vi)] = float64(e.vms[vi].jobs)
		out[core.UnblocksMetric(vi)] = float64(e.vms[vi].unblocks)
	}
	return out
}

// RunReplication is the fast-engine counterpart of core.RunReplication:
// it builds a fresh engine and scheduler and simulates horizon ticks.
func RunReplication(cfg core.SystemConfig, factory core.SchedulerFactory, horizon int64, seed uint64) (map[string]float64, error) {
	return RunReplicationInterval(cfg, factory, 0, horizon, seed)
}

// RunReplicationInterval is RunReplication with transient removal: rewards
// are measured over [warmup, horizon) only.
func RunReplicationInterval(cfg core.SystemConfig, factory core.SchedulerFactory, warmup, horizon int64, seed uint64) (map[string]float64, error) {
	if factory == nil {
		return nil, fmt.Errorf("fastsim: nil scheduler factory")
	}
	e, err := New(cfg, factory(), seed)
	if err != nil {
		return nil, err
	}
	return e.RunInterval(warmup, horizon)
}
