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
// fast engine and the SAN engine produce bit-identical per-entity reward
// values (per VCPU, per PCPU and per VM); the six fleet averages (the
// "*/avg" keys) agree within 1e-9 only, because the two engines accumulate
// them in different orders.
package fastsim

import (
	"fmt"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/workload"
)

// vmState is the job-flow state of one VM.
type vmState struct {
	syncKind workload.SyncKind
	numReady int
	loaded   int // VCPUs with RemainingLoad > 0
	gen      *workload.Generator
	vcpus    []int // global VCPU ids, sibling order

	// pending is the workload generated but not yet dispatched, held by
	// value so a dispatch does not allocate; valid while hasPending.
	pending    workload.Workload
	hasPending bool

	// blocked is the barrier state; since is the first tick of it (or of
	// its absence) not yet credited. blocked sits beside hasPending so
	// the two bools share a word.
	blocked bool
	since   int64

	jobs     int64 // workloads dispatched (in the measured window)
	unblocks int64 // barrier releases (in the measured window)
}

// Engine simulates one replication. Construct with New; single-use.
//
// The engine's VCPU and PCPU state is the view slices it hands to the
// scheduling function: each tick Schedule reads the live state, as the
// paper's C function reads the host's VCPU_host_external and PCPU_external
// arrays, and the core.Scheduler contract forbids it to write them. New
// writes each view's ID, VM and Sibling (and each PCPU's ID) once.
type Engine struct {
	sched core.Scheduler
	vcpus []core.VCPUView
	vms   []vmState
	pcpus []core.PCPUView

	// spinlock reports whether any VM uses the spinlock extension; without
	// one no VCPU can spin, and sample skips the per-VCPU check.
	spinlock bool

	now int64

	// warmup is the transient prefix excluded from the rewards.
	warmup int64

	// Reward accumulators of the current window: sampled ticks in state,
	// keyed like the SAN metrics. Occupancy is credited when a state ends
	// (see creditVCPU), not tick by tick; settle credits the states still
	// open. Work ticks are busy ticks minus spin ticks.
	activeTicks  []int64
	busyTicks    []int64
	pcpuTicks    []int64
	blockedTicks int64
	spinTicks    int64

	// vcpuSince holds the first tick of each VCPU's status not yet
	// credited.
	vcpuSince []int64

	// Engine counters (see Stats): plain increments, always on.
	schedIns  int64
	schedOuts int64

	// hook, if set, observes the engine's state once per tick; vmCfgs
	// names the VCPUs it reads.
	hook   func(now int64)
	vmCfgs []core.VMConfig

	// Per-tick scratch reused in place: the scheduler's Actions
	// accumulator and process's per-VM spinlock-preemption mask.
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
	s := Stats{Ticks: max(e.now-e.warmup, 0), ScheduleIns: e.schedIns, ScheduleOuts: e.schedOuts}
	for vi := range e.vms {
		s.Jobs += e.vms[vi].jobs
		s.Unblocks += e.vms[vi].unblocks
	}
	return s
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
	// id lists and the tick counters with the VCPUs' since-ticks each
	// share one backing array: engine set-up is a per-cell cost of every
	// experiment grid.
	n := cfg.TotalVCPUs()
	e := &Engine{
		sched:  sched,
		vcpus:  make([]core.VCPUView, 0, n),
		vms:    make([]vmState, 0, len(cfg.VMs)),
		pcpus:  make([]core.PCPUView, cfg.PCPUs),
		vmCfgs: cfg.VMs,
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
			e.vcpus = append(e.vcpus, core.VCPUView{
				ID: len(e.vcpus), VM: i, Sibling: k,
				Status: core.Inactive, PCPU: -1, LastScheduledIn: -1,
			})
		}
		e.vms = append(e.vms, vm)
		e.spinlock = e.spinlock || vm.syncKind == workload.SyncSpinlock
	}
	for i := range e.pcpus {
		e.pcpus[i] = core.PCPUView{ID: i, VCPU: -1}
	}
	ticks := make([]int64, 3*n+cfg.PCPUs)
	e.activeTicks, e.busyTicks, e.vcpuSince = ticks[:n:n], ticks[n:2*n:2*n], ticks[2*n:3*n:3*n]
	e.pcpuTicks = ticks[3*n:]
	return e, nil
}

// SetTickHook attaches fn, called once per tick with the tick's number
// after the tick's last job flow and before its sampling: the state it
// reads through the Inspect methods is the state the tick is sampled in.
// Pass nil to detach.
func (e *Engine) SetTickHook(fn func(now int64)) { e.hook = fn }

// NumVCPUs returns the engine's VCPU count (global index space).
func (e *Engine) NumVCPUs() int { return len(e.vcpus) }

// NumPCPUs returns the engine's PCPU count.
func (e *Engine) NumPCPUs() int { return len(e.pcpus) }

// VCPUName returns the display name of VCPU i, as core.System.VCPUName.
func (e *Engine) VCPUName(i int) string {
	return core.SystemConfig{VMs: e.vmCfgs}.VCPUName(e.vcpus[i].VM, e.vcpus[i].Sibling)
}

// InspectVCPU fills dst with VCPU i's current state, as
// core.System.InspectVCPU does for the SAN engine.
func (e *Engine) InspectVCPU(i int, dst *core.InspectVCPU) {
	v := &e.vcpus[i]
	*dst = core.InspectVCPU{
		VM: v.VM, Sibling: v.Sibling, Status: v.Status, RemainingLoad: v.RemainingLoad,
		SyncPoint: v.SyncPoint, PCPU: v.PCPU, Stalled: v.Stalled,
	}
}

// InspectPCPU fills dst with PCPU i's current state.
func (e *Engine) InspectPCPU(i int, dst *core.PCPUView) { *dst = e.pcpus[i] }

// Run simulates horizon ticks and returns the reward values keyed exactly
// like the SAN engine's metrics.
func (e *Engine) Run(horizon int64) (map[string]float64, error) {
	return e.RunInterval(0, horizon)
}

// RunInterval simulates horizon ticks but measures rewards over
// [warmup, horizon) only, discarding the initial transient — the
// counterpart of the SAN runner's RunInterval.
func (e *Engine) RunInterval(warmup, horizon int64) (map[string]float64, error) {
	span := horizon - warmup
	if err := checkRun(warmup, horizon, span); err != nil {
		return nil, err
	}
	var out map[string]float64
	if err := e.run(warmup, horizon, span, func() { out = e.metrics(span, true) }); err != nil {
		return nil, err
	}
	return out, nil
}

// RunWindowed simulates horizon ticks (after discarding a warmup prefix)
// and returns the metric map of every consecutive window of `window`
// ticks — the raw material for single-run steady-state estimation via the
// method of batch means (sim.BatchMeans). The measured span
// (horizon - warmup) must be a positive multiple of window.
func (e *Engine) RunWindowed(warmup, horizon, window int64) ([]map[string]float64, error) {
	if err := checkRun(warmup, horizon, window); err != nil {
		return nil, err
	}
	var out []map[string]float64
	if err := e.run(warmup, horizon, window, func() { out = append(out, e.metrics(window, false)) }); err != nil {
		return nil, err
	}
	return out, nil
}

// checkRun validates a run's measured interval [warmup, horizon) and its
// window length.
func checkRun(warmup, horizon, window int64) error {
	if horizon <= 0 {
		return fmt.Errorf("fastsim: non-positive horizon %d", horizon)
	}
	if warmup < 0 || warmup >= horizon {
		return fmt.Errorf("fastsim: warmup %d outside [0, horizon %d)", warmup, horizon)
	}
	if window <= 0 || (horizon-warmup)%window != 0 {
		return fmt.Errorf("fastsim: window %d must positively divide the measured span %d", window, horizon-warmup)
	}
	return nil
}

// run is the tick loop. It simulates from the engine's current tick up to
// horizon, measuring from warmup on; at the end of every window of window
// sampled ticks it settles the open states, calls emit to read the reward
// accumulators and clears them for the next window. A later call with the
// same warmup and window resumes where the last one stopped.
func (e *Engine) run(warmup, horizon, window int64, emit func()) error {
	e.warmup = warmup
	// end is the first tick past the current window.
	end := warmup + window
	if e.now > warmup {
		end += (e.now - warmup) / window * window
	}
	for ; e.now < horizon; e.now++ {
		// Tick 0 opens with the initial hypervisor invocation (the SAN
		// model's initial HV_Tick token): nothing is loaded to process yet.
		if e.now > 0 {
			e.process()
			e.jobFlow()
		}
		if err := e.hypervisorStep(); err != nil {
			return err
		}
		e.jobFlow()
		if e.hook != nil {
			e.hook(e.now)
		}
		e.sample()
		if e.now+1 == end {
			e.settle(end)
			emit()
			clear(e.activeTicks)
			clear(e.busyTicks)
			clear(e.pcpuTicks)
			e.blockedTicks, e.spinTicks = 0, 0
			end += window
		}
	}
	return nil
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
		if v.Status != core.Busy {
			continue
		}
		if preempted[v.VM] && !(v.SyncPoint && v.RemainingLoad > 0) {
			continue // spinning
		}
		v.RemainingLoad--
		if v.RemainingLoad <= 0 {
			v.RemainingLoad = 0
			v.SyncPoint = false
			e.creditVCPU(id, e.now)
			v.Status = core.Ready
			vm := &e.vms[v.VM]
			vm.numReady++
			vm.loaded--
		}
	}
}

// jobFlow runs each VM's workload generator and job scheduler to fixpoint,
// mirroring the SAN model's instantaneous activities: unblock if the
// barrier cleared, generate into the pending slot when a READY VCPU exists,
// dispatch the pending workload unless the spinlock gate holds it back.
// A VM with no READY VCPU, or blocked at a barrier not yet drained, can do
// none of the three and is skipped; a blocked VM holds no pending
// workload, since generation needs it unblocked and dispatch follows.
func (e *Engine) jobFlow() {
	for vi := range e.vms {
		vm := &e.vms[vi]
		if vm.blocked {
			if vm.loaded > 0 {
				continue
			}
		} else if vm.numReady == 0 {
			continue
		}
		for done := false; !done; {
			progress := false
			if vm.blocked && vm.loaded == 0 {
				e.creditVM(vi, e.now)
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
				e.dispatch(vi, vm.pending)
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
		if v.SyncPoint && v.RemainingLoad > 0 {
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
		if v.SyncPoint && v.RemainingLoad > 0 && v.Status == core.Inactive {
			return true
		}
	}
	return false
}

// spinning reports whether VCPU id is burning its PCPU on a preempted
// spinlock.
func (e *Engine) spinning(id int) bool {
	v := &e.vcpus[id]
	if e.vms[v.VM].syncKind != workload.SyncSpinlock || v.Status != core.Busy {
		return false
	}
	if v.SyncPoint && v.RemainingLoad > 0 {
		return false
	}
	return e.lockHolderPreempted(v.VM)
}

// dispatch assigns a workload to VM vi's lowest-sibling READY VCPU.
func (e *Engine) dispatch(vi int, w workload.Workload) {
	vm := &e.vms[vi]
	for _, id := range vm.vcpus {
		v := &e.vcpus[id]
		if v.Status != core.Ready {
			continue
		}
		v.RemainingLoad = w.Load
		v.SyncPoint = w.Sync
		e.creditVCPU(id, e.now)
		v.Status = core.Busy
		vm.numReady--
		vm.loaded++ // a workload's load is at least one tick
		break
	}
	if w.Sync && vm.syncKind == workload.SyncBarrier {
		e.creditVM(vi, e.now)
		vm.blocked = true
	}
}

// hypervisorStep charges runtime, expires timeslices, and invokes the
// plugged-in scheduling function on the engine's own views.
func (e *Engine) hypervisorStep() error {
	if e.now > 0 {
		for id := range e.vcpus {
			v := &e.vcpus[id]
			if v.PCPU < 0 {
				continue
			}
			v.Runtime++
			v.Timeslice--
			if v.Timeslice <= 0 {
				e.scheduleOut(id)
			}
		}
	}

	if e.preempted == nil {
		// Sized at the first tick rather than in New, so building an
		// engine costs no more than its model state. The tick loop runs
		// this step at tick 0, before any process, so process finds it
		// sized.
		e.preempted = make([]bool, len(e.vms))
	}
	e.acts.Reset()
	e.sched.Schedule(e.now, e.vcpus, e.pcpus, &e.acts)
	return e.apply(&e.acts)
}

// scheduleOut transitions a VCPU to INACTIVE, freeing its PCPU.
func (e *Engine) scheduleOut(id int) {
	v := &e.vcpus[id]
	e.creditVCPU(id, e.now)
	e.pcpus[v.PCPU].VCPU = -1
	v.PCPU = -1
	v.Timeslice = 0
	if v.Status == core.Ready {
		e.vms[v.VM].numReady--
	}
	v.Status = core.Inactive
	e.schedOuts++
}

// apply validates and applies the scheduling function's decisions:
// preemptions first, then assignments — mirroring core.System.
func (e *Engine) apply(acts *core.Actions) error {
	assigns, preempts := acts.Recorded()
	for _, id := range preempts {
		if id < 0 || id >= len(e.vcpus) {
			return fmt.Errorf("fastsim: scheduler %q preempted unknown VCPU %d", e.sched.Name(), id)
		}
		if e.vcpus[id].PCPU < 0 {
			return fmt.Errorf("fastsim: scheduler %q preempted inactive VCPU %d", e.sched.Name(), id)
		}
		e.scheduleOut(id)
	}
	for _, a := range assigns {
		switch {
		case a.VCPU < 0 || a.VCPU >= len(e.vcpus):
			return fmt.Errorf("fastsim: scheduler %q assigned unknown VCPU %d", e.sched.Name(), a.VCPU)
		case a.PCPU < 0 || a.PCPU >= len(e.pcpus):
			return fmt.Errorf("fastsim: scheduler %q assigned unknown PCPU %d", e.sched.Name(), a.PCPU)
		case a.Timeslice < 1:
			return fmt.Errorf("fastsim: scheduler %q assigned non-positive timeslice %d", e.sched.Name(), a.Timeslice)
		case e.vcpus[a.VCPU].PCPU >= 0:
			return fmt.Errorf("fastsim: scheduler %q double-assigned VCPU %d", e.sched.Name(), a.VCPU)
		case e.pcpus[a.PCPU].VCPU >= 0:
			return fmt.Errorf("fastsim: scheduler %q assigned busy PCPU %d", e.sched.Name(), a.PCPU)
		}
		v := &e.vcpus[a.VCPU]
		e.creditVCPU(a.VCPU, e.now)
		e.pcpus[a.PCPU].VCPU = a.VCPU
		v.PCPU = a.PCPU
		v.Timeslice = a.Timeslice
		v.LastScheduledIn = e.now
		if v.RemainingLoad > 0 {
			v.Status = core.Busy
		} else {
			v.Status = core.Ready
			e.vms[v.VM].numReady++
		}
		e.schedIns++
	}
	return nil
}

// sample counts, under the spinlock extension, the VCPUs spinning in a
// sampled tick (ticks before the warmup point are discarded). State
// occupancy is credited on transitions instead.
func (e *Engine) sample() {
	if !e.spinlock || e.now < e.warmup {
		return
	}
	for id := range e.vcpus {
		if e.spinning(id) {
			e.spinTicks++
		}
	}
}

// creditVCPU credits VCPU id's current status, and the PCPU it holds,
// with the ticks they have been sampled in before tick at, and starts its
// next status at at. Every write of a VCPU's Status calls it first. A VCPU
// is READY or BUSY exactly while it holds a PCPU (apply grants both,
// scheduleOut revokes both), so its active ticks are its PCPU's occupied
// ticks.
func (e *Engine) creditVCPU(id int, at int64) {
	v := &e.vcpus[id]
	if n := at - max(e.vcpuSince[id], e.warmup); n > 0 && v.Status.Active() {
		e.activeTicks[id] += n
		e.pcpuTicks[v.PCPU] += n
		if v.Status == core.Busy {
			e.busyTicks[id] += n
		}
	}
	e.vcpuSince[id] = at
}

// creditVM is creditVCPU for VM vi's barrier state; every write of a VM's
// blocked flag calls it first.
func (e *Engine) creditVM(vi int, at int64) {
	vm := &e.vms[vi]
	if n := at - max(vm.since, e.warmup); n > 0 && vm.blocked {
		e.blockedTicks += n
	}
	vm.since = at
}

// settle credits every open state up to tick at, the end of the last
// sampled tick, so the accumulators hold exactly what sampling each tick
// would have added.
func (e *Engine) settle(at int64) {
	for id := range e.vcpus {
		e.creditVCPU(id, at)
	}
	for vi := range e.vms {
		e.creditVM(vi, at)
	}
}

// metrics converts the accumulators of a window of ticks sampled ticks to
// time-averaged metrics keyed like the SAN engine's reward variables; jobs
// adds each VM's job and unblock counts.
func (e *Engine) metrics(ticks int64, jobs bool) map[string]float64 {
	t := float64(ticks)
	n := 2*len(e.vcpus) + len(e.pcpus) + 6
	if jobs {
		n += 2 * len(e.vms)
	}
	out := make(map[string]float64, n)
	var sumActive, sumBusy, sumPCPU float64
	work := -e.spinTicks
	for id := range e.vcpus {
		v := &e.vcpus[id]
		avail := float64(e.activeTicks[id]) / t
		busy := float64(e.busyTicks[id]) / t
		out[core.AvailabilityMetric(v.VM, v.Sibling)] = avail
		out[core.VCPUUtilizationMetric(v.VM, v.Sibling)] = busy
		sumActive += avail
		sumBusy += busy
		work += e.busyTicks[id]
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
	out[core.EffectiveUtilizationMetric] = float64(work) / t / float64(len(e.vcpus))
	if jobs {
		for vi := range e.vms {
			out[core.JobsMetric(vi)] = float64(e.vms[vi].jobs)
			out[core.UnblocksMetric(vi)] = float64(e.vms[vi].unblocks)
		}
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
