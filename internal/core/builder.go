package core

import (
	"fmt"

	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/workload"
)

// Instantaneous-activity priorities fix the within-tick ordering of the
// model (lower fires first): job processing, then the VM-side job flow,
// then the hypervisor's scheduling function, then the Schedule_Out /
// Schedule_In notifications — after which the job flow may fire again for
// freshly scheduled VCPUs.
const (
	prioProcess  = 10
	prioUnblock  = 20
	prioGenerate = 30
	prioDispatch = 40
	prioSchedFn  = 50
	prioSchedOut = 55
	prioSchedIn  = 56
)

// Slot is the value of a VCPU_slot extended place (paper §III.B.2): the
// interface between a VM's job scheduler and one of its VCPUs.
type Slot struct {
	// RemainingLoad is the remaining time to complete the current load.
	RemainingLoad int64
	// Done is the progress made on the current workload since dispatch,
	// in ticks. A PCPU fail-stop fault rolls it back into RemainingLoad
	// (the work lost to the co-schedule abort); ordinary preemption
	// retains it.
	Done int64
	// SyncPoint marks the current workload as a synchronization point.
	SyncPoint bool
	// Status is the VCPU status.
	Status Status
}

// hostState is the VCPU-scheduler-side state of one VCPU place (paper
// §III.B.5): timeslice, last schedule-in timestamp, and bookkeeping.
type hostState struct {
	Timeslice int64
	LastIn    int64
	Runtime   int64
	PCPU      int // assigned PCPU or -1
}

// pendingWorkload is the value of a VM's Workload place: at most one
// generated-but-undispatched workload.
type pendingWorkload struct {
	Present bool
	Load    int64
	Sync    bool
}

// vcpuRef bundles the places belonging to one VCPU across sub-models.
type vcpuRef struct {
	id       int // global VCPU index
	vm       int
	sibling  int
	slot     *san.ExtPlace[Slot]
	host     *san.ExtPlace[hostState]
	tick     *san.Place
	schedIn  *san.Place
	schedOut *san.Place
}

// vmRef bundles the places belonging to one VM.
type vmRef struct {
	index    int
	syncKind workload.SyncKind
	blocked  *san.Place
	numReady *san.Place
	pending  *san.ExtPlace[pendingWorkload]
	gen      *workload.Generator
	vcpus    []*vcpuRef
	// stalled, set when a fault plan is composed in, reports whether the
	// global VCPU id is frozen by an injected stall; nil on healthy hosts.
	stalled func(id int) bool
}

// hasInFlightSync reports whether a sync-point workload is currently being
// processed (or held by a descheduled VCPU) in the VM.
func (vm *vmRef) hasInFlightSync() bool {
	for _, vc := range vm.vcpus {
		s := vc.slot.Peek()
		if s.SyncPoint && s.RemainingLoad > 0 {
			return true
		}
	}
	return false
}

// lockHolderPreempted reports whether the VM's in-flight spinlock holder is
// descheduled — the lock-holder-preemption scenario of the paper's §II.B:
// the hypervisor, unaware of the guest critical section (the semantic gap),
// preempted the VCPU mid-lock, so sibling VCPUs spin.
func (vm *vmRef) lockHolderPreempted() bool {
	for _, vc := range vm.vcpus {
		s := vc.slot.Peek()
		if !s.SyncPoint || s.RemainingLoad <= 0 {
			continue
		}
		if s.Status == Inactive {
			return true
		}
		// An injected stall freezes the scheduled holder mid-critical-
		// section — same semantic gap, same sibling spin storm.
		if vm.stalled != nil && s.Status == Busy && vm.stalled(vc.id) {
			return true
		}
	}
	return false
}

// spinning reports whether VCPU vc is currently burning PCPU time on a
// spinlock without making progress.
func (vm *vmRef) spinning(vc *vcpuRef) bool {
	if vm.syncKind != workload.SyncSpinlock {
		return false
	}
	s := vc.slot.Peek()
	if s.Status != Busy {
		return false
	}
	if s.SyncPoint && s.RemainingLoad > 0 {
		return false // the holder itself always progresses while scheduled
	}
	return vm.lockHolderPreempted()
}

// System is a fully composed virtualization-system model, ready to simulate
// for one replication. Systems are single-use: build a fresh one per
// replication (construction is cheap), because the plugged-in Scheduler and
// the workload generators carry state across ticks.
type System struct {
	cfg       SystemConfig
	model     *san.Model
	sched     Scheduler
	vms       []*vmRef
	vcpus     []*vcpuRef
	pcpus     *san.ExtPlace[[]int]
	clock     *san.Activity
	timestamp *san.ExtPlace[int64]
	schedFn   *san.Activity

	// flt / inj are the degraded-mode runtime and the SAN-side fault
	// injector, both nil unless cfg.Faults is set; hot paths gate on a
	// single nil test.
	flt *faultRuntime
	inj *faults.Injector

	// hist / rec are the opt-in inspection hooks — distribution rewards
	// and the scheduler's flight recorder — both nil unless enabled;
	// every record site is one nil test.
	hist *coreHists
	rec  *obs.FlightRecorder

	// tickNow shadows the Timestamp place so gates that are not linked
	// to it (Generate, Scheduling) can stamp and measure queueing wait
	// without adding an undeclared place read. schedulerStep writes it
	// in the same breath as the Timestamp marking.
	tickNow int64

	// Per-tick scratch reused across schedulerStep calls so the hot path
	// does not allocate: view slices handed to the Scheduler, the pending
	// schedule-out mask, and the Actions accumulator.
	viewBuf    []VCPUView
	pviewBuf   []PCPUView
	pendingOut []bool
	acts       Actions

	// parked, when non-nil, marks VMs not admitted on this host (cluster
	// orchestration): their VCPUs appear Parked in scheduler views. nil
	// on single-host systems, so the hot path pays one nil test. Like
	// SetActivityEnabled it persists across Reseed — the orchestrator
	// re-establishes admission state at the start of each replication.
	parked []bool
}

// Model returns the composed SAN model.
func (s *System) Model() *san.Model { return s.model }

// Reseed re-derives the system's per-replication state exactly as a fresh
// BuildSystem with the same source would: each VM's workload-generator
// stream is re-split off src in VM definition order, and sched replaces
// the plugged-in scheduler (algorithm state must not survive into the next
// replication, so callers pass a freshly constructed one). The caller
// draws the executive's seed from src afterwards, matching the fresh
// build's draw order, so a reseeded system replays a replication
// bit-identically.
func (s *System) Reseed(sched Scheduler, src *rng.Source) error {
	if sched == nil {
		return fmt.Errorf("core: nil scheduler")
	}
	if src == nil {
		return fmt.Errorf("core: nil random source")
	}
	for _, vm := range s.vms {
		vm.gen.Reseed(src.Uint64())
	}
	s.sched = sched
	if s.flt != nil {
		s.flt.reset()
	}
	if s.hist != nil {
		s.hist.reset()
	}
	s.tickNow = 0
	return nil
}

// BuildSystem composes the full virtualization-system model (the paper's
// Figure 7 structure): one VCPU-scheduler sub-model plus one VM composed
// model per VMConfig, each consisting of a workload generator, a job
// scheduler, and VCPU sub-models, all wired through the join places of the
// paper's Tables 1 and 2. src seeds the workload generators; the plugged-in
// sched is invoked every clock tick.
func BuildSystem(cfg SystemConfig, sched Scheduler, src *rng.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, fmt.Errorf("core: nil scheduler")
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil random source")
	}

	model := san.NewModel("Virtual_System")
	sys := &System{cfg: cfg, model: model, sched: sched}

	// --- VCPU Scheduler sub-model (paper Figure 6) ---
	hv := model.Sub("VCPU_Scheduler")
	numPCPUs := hv.Place("Num_PCPUs", cfg.PCPUs)
	// The PCPU count is read-only by construction; the declared law lets
	// the structural analyzer verify that against the incidence matrix.
	model.DeclareConservation("pcpu-count",
		san.PlaceWeight{Place: numPCPUs.Name(), Weight: 1})
	hvTick := hv.Place("HV_Tick", 1) // initial token runs the scheduler at t=0
	sys.pcpus = san.NewExtPlace(hv, "PCPUs", func() []int {
		pc := make([]int, cfg.PCPUs)
		for i := range pc {
			pc[i] = -1
		}
		return pc
	})
	timestamp := san.NewExtPlace(hv, "Timestamp", func() int64 { return 0 })
	sys.timestamp = timestamp

	// --- VM composed models (paper Figure 2) ---
	for i, vmCfg := range cfg.VMs {
		vm, err := buildVM(sys, hv, i, vmCfg, src)
		if err != nil {
			return nil, err
		}
		sys.vms = append(sys.vms, vm)
		sys.vcpus = append(sys.vcpus, vm.vcpus...)
	}

	// --- Clock: fires every time unit, driving processing and the
	// scheduling function (paper §III.B.5) ---
	clock := hv.TimedActivity("Clock", rng.Deterministic{Value: 1})
	// Output arcs: every firing marks each tick place with exactly one
	// token, so the executor applies the fan-out from its compiled firing
	// plan. Together with the instantaneous activities draining each tick
	// place, the arcs give the structural analyzer a drain certificate
	// proving the tick places bounded.
	clock.OutputArc(hvTick, 1)
	for _, v := range sys.vcpus {
		clock.OutputArc(v.tick, 1)
	}
	sys.clock = clock

	// --- Scheduling_Func: timeslice accounting + the plugged-in
	// scheduling function, once per tick ---
	fn := hv.InstantActivity("Scheduling_Func").Priority(prioSchedFn)
	fn.InputArc(hvTick, 1)
	fn.Link(san.LinkInput, numPCPUs.Name())
	fn.Link(san.LinkInput, sys.pcpus.Name())
	fn.Link(san.LinkOutput, sys.pcpus.Name())
	fn.Link(san.LinkInput, timestamp.Name())
	fn.Link(san.LinkOutput, timestamp.Name())
	for _, vc := range sys.vcpus {
		// The scheduling function reads and updates every VCPU's host
		// state and raises the Schedule_In/Out notifications.
		fn.Link(san.LinkInput, vc.host.Name())
		fn.Link(san.LinkOutput, vc.host.Name())
		fn.Link(san.LinkOutput, vc.schedIn.Name())
		fn.Link(san.LinkOutput, vc.schedOut.Name())
	}
	fn.AddCase(nil, func() { sys.schedulerStep(timestamp) })
	sys.schedFn = fn

	// Fault-injection submodel (nil plan: no-op). Built after the Clock so
	// fault activities follow it in definition order — the RNG delay-draw
	// order of every healthy activity is untouched.
	if err := buildFaults(sys); err != nil {
		return nil, err
	}

	if err := model.Err(); err != nil {
		return nil, fmt.Errorf("core: building system: %w", err)
	}
	registerRewards(sys)
	return sys, nil
}

// buildVM composes one VM: workload generator, job scheduler, and VCPU
// sub-models (paper Figures 2-5), plus its joins into the VCPU scheduler
// (paper Table 2).
func buildVM(sys *System, hv *san.Sub, index int, cfg VMConfig, src *rng.Source) (*vmRef, error) {
	model := sys.model
	name := sys.cfg.VMName(index)

	js := model.Sub(name + ".Job_Scheduler")
	wg := model.Sub(name + ".Workload_Generator")

	vm := &vmRef{index: index, syncKind: cfg.Workload.SyncKind}
	// Join places of Table 1. Created once, shared into every sub-model
	// that the paper lists as holding a copy. The gates drive both places
	// through unquantified writes, so declared (runtime-enforced)
	// capacities carry their boundedness certificates: Blocked is a
	// binary barrier, Num_VCPUs_ready counts READY VCPUs of this VM.
	vm.blocked = js.Place("Blocked", 0).SetCapacity(1)
	vm.numReady = js.Place("Num_VCPUs_ready", 0).SetCapacity(cfg.VCPUs)
	vm.pending = san.NewExtPlace(js, "Workload", func() pendingWorkload { return pendingWorkload{} })
	wg.Share(vm.blocked)
	wg.Share(vm.numReady)
	san.ShareExt(wg, vm.pending)

	gen, err := workload.NewGenerator(cfg.Workload, src.Split())
	if err != nil {
		return nil, fmt.Errorf("core: VM %s: %w", name, err)
	}
	vm.gen = gen

	// VCPU sub-models.
	for k := 0; k < cfg.VCPUs; k++ {
		vc := &vcpuRef{id: len(sys.vcpus) + len(vm.vcpus), vm: index, sibling: k}
		sub := model.Sub(fmt.Sprintf("%s.VCPU%d", name, k+1))

		vc.slot = san.NewExtPlace(js, fmt.Sprintf("VCPU%d_slot", k+1), func() Slot {
			return Slot{Status: Inactive}
		})
		san.ShareExt(sub, vc.slot)
		sub.Share(vm.blocked)
		sub.Share(vm.numReady)

		// Join places of Table 2: Schedule_In/Out shared between the
		// VCPU sub-model and the VCPU scheduler. At most one notification
		// is ever pending per VCPU: the scheduling step (or a PCPU crash
		// eviction) raises one at a stable marking, and the VCPU's
		// instantaneous Schedule_In/Out_evt consumes it before the next
		// timed firing.
		vc.schedIn = hv.Place(fmt.Sprintf("Schedule_In_%d_%d", index+1, k+1), 0).SetCapacity(1)
		vc.schedOut = hv.Place(fmt.Sprintf("Schedule_Out_%d_%d", index+1, k+1), 0).SetCapacity(1)
		sub.Share(vc.schedIn)
		sub.Share(vc.schedOut)
		vc.host = san.NewExtPlace(hv, fmt.Sprintf("VCPU_%d_%d", index+1, k+1), func() hostState {
			return hostState{PCPU: -1, LastIn: -1}
		})
		vc.tick = sub.Place("Tick", 0)
		hv.Share(vc.tick) // the hypervisor's clock drives the tick place

		buildVCPUActivities(sys, sub, vm, vc)
		vm.vcpus = append(vm.vcpus, vc)
	}

	buildJobFlow(sys, wg, js, vm)
	return vm, nil
}

// buildVCPUActivities wires one VCPU sub-model (paper Figure 4): per-tick
// load processing and the Schedule_In / Schedule_Out notifications.
func buildVCPUActivities(sys *System, sub *san.Sub, vm *vmRef, vc *vcpuRef) {
	// Processing_load: each time unit a BUSY VCPU reduces remaining_load
	// by one; at zero the VCPU turns READY and Num_VCPUs_ready grows.
	proc := sub.InstantActivity("Processing_load").Priority(prioProcess)
	proc.InputArc(vc.tick, 1)
	proc.Link(san.LinkInput, vc.slot.Name())
	proc.Link(san.LinkOutput, vm.numReady.Name())
	proc.AddCase(nil, func() {
		if vc.slot.Peek().Status != Busy {
			return
		}
		if vm.spinning(vc) {
			// Spinlock extension: a sibling holds the VM's lock but was
			// descheduled, so this VCPU burns the tick without progress.
			return
		}
		if flt := sys.flt; flt != nil {
			if flt.stalled[vc.id] {
				// Injected stall: the VCPU burns the tick frozen.
				return
			}
			if p := vc.host.Peek().PCPU; p >= 0 && flt.throttle[p] > 0 {
				// Throttled PCPU: bank fractional progress and spend a
				// whole tick of credit per completed tick of work.
				flt.credit[p] += flt.throttle[p]
				if flt.credit[p] < 1 {
					return
				}
				flt.credit[p]--
			}
		}
		s := vc.slot.Get()
		s.RemainingLoad--
		s.Done++
		if s.RemainingLoad <= 0 {
			s.RemainingLoad = 0
			s.Done = 0
			s.SyncPoint = false
			s.Status = Ready
			vm.numReady.Add(1)
		}
	})

	// Schedule_Out: the hypervisor revoked the PCPU; the VCPU turns
	// INACTIVE, possibly mid-load and possibly holding a sync point.
	out := sub.InstantActivity("Schedule_Out_evt").Priority(prioSchedOut)
	out.InputArc(vc.schedOut, 1)
	out.Link(san.LinkInput, vc.slot.Name())
	out.Link(san.LinkOutput, vc.slot.Name())
	out.Link(san.LinkOutput, vm.numReady.Name())
	out.AddCase(nil, func() {
		s := vc.slot.Get()
		if s.Status == Ready {
			vm.numReady.Add(-1)
		}
		s.Status = Inactive
	})

	// Schedule_In: the hypervisor granted a PCPU; the VCPU resumes its
	// load (BUSY) or idles (READY).
	in := sub.InstantActivity("Schedule_In_evt").Priority(prioSchedIn)
	in.InputArc(vc.schedIn, 1)
	in.Link(san.LinkInput, vc.slot.Name())
	in.Link(san.LinkOutput, vc.slot.Name())
	in.Link(san.LinkOutput, vm.numReady.Name())
	in.AddCase(nil, func() {
		s := vc.slot.Get()
		if s.RemainingLoad > 0 {
			s.Status = Busy
		} else {
			s.Status = Ready
			vm.numReady.Add(1)
		}
	})
}

// buildJobFlow wires a VM's workload generator (paper Figure 5) and job
// scheduler (paper Figure 3).
func buildJobFlow(sys *System, wg, js *san.Sub, vm *vmRef) {
	// Generate: emits a workload when the VM is not blocked and at least
	// one VCPU is READY (paper §III.B.3).
	gen := wg.InstantActivity("Generate").Priority(prioGenerate)
	gen.Link(san.LinkInput, vm.blocked.Name())
	gen.Link(san.LinkInput, vm.numReady.Name())
	// The predicate also reads the Workload place (the one-outstanding-
	// workload test), so the runner's incidence index must see it as an
	// input dependency, not just an output.
	gen.Link(san.LinkInput, vm.pending.Name())
	gen.Link(san.LinkOutput, vm.pending.Name())
	gen.Predicate(func() bool {
		return vm.blocked.Tokens() == 0 && vm.numReady.Tokens() > 0 && !vm.pending.Peek().Present
	})
	gen.AddCase(nil, func() { // the paper's WL_Output gate
		w := vm.gen.Next()
		*vm.pending.Get() = pendingWorkload{Present: true, Load: w.Load, Sync: w.Sync}
	})

	// Scheduling: dispatches the pending workload to a READY VCPU; a
	// sync-point workload raises the Blocked barrier until all preceding
	// jobs complete (paper §III.B.1).
	disp := js.InstantActivity("Scheduling").Priority(prioDispatch)
	disp.Link(san.LinkInput, vm.pending.Name())
	disp.Link(san.LinkInput, vm.numReady.Name())
	disp.Predicate(func() bool {
		w := vm.pending.Peek()
		if !w.Present || vm.numReady.Tokens() == 0 {
			return false
		}
		if vm.syncKind == workload.SyncSpinlock && w.Sync && vm.hasInFlightSync() {
			// Spinlock extension: the VM-wide lock is taken; the next
			// lock acquisition waits until the in-flight holder releases.
			return false
		}
		return true
	})
	disp.Link(san.LinkOutput, vm.numReady.Name())
	disp.Link(san.LinkOutput, vm.blocked.Name()) // raises the sync barrier
	disp.AddCase(nil, func() {
		w := vm.pending.Get()
		for _, vc := range vm.vcpus {
			if vc.slot.Peek().Status != Ready {
				continue
			}
			s := vc.slot.Get()
			s.RemainingLoad = w.Load
			s.Done = 0
			s.SyncPoint = w.Sync
			s.Status = Busy
			vm.numReady.Add(-1)
			break
		}
		if w.Sync && vm.syncKind == workload.SyncBarrier {
			vm.blocked.SetTokens(1)
		}
		*w = pendingWorkload{}
	})
	for _, vc := range vm.vcpus {
		// Only the spinlock-mode predicate scans the sibling slots
		// (hasInFlightSync); in the other sync modes the slots are pure
		// outputs, so the dispatch is not reconsidered on every slot write.
		if vm.syncKind == workload.SyncSpinlock {
			disp.Link(san.LinkInput, vc.slot.Name())
		}
		disp.Link(san.LinkOutput, vc.slot.Name())
	}

	// Unblock: the barrier clears once every VCPU of the VM has finished
	// its outstanding load.
	unb := js.InstantActivity("Unblock").Priority(prioUnblock)
	unb.Link(san.LinkInput, vm.blocked.Name())
	unb.Link(san.LinkOutput, vm.blocked.Name()) // clears the sync barrier
	for _, vc := range vm.vcpus {
		// The predicate waits on every VCPU's remaining load.
		unb.Link(san.LinkInput, vc.slot.Name())
	}
	unb.Predicate(func() bool {
		if vm.blocked.Tokens() == 0 {
			return false
		}
		for _, vc := range vm.vcpus {
			if vc.slot.Peek().RemainingLoad > 0 {
				return false
			}
		}
		return true
	})
	unb.AddCase(nil, func() { vm.blocked.SetTokens(0) })

	model := js.Model()
	model.AddImpulseReward(JobsMetric(vm.index), disp, nil)
	model.AddImpulseReward(UnblocksMetric(vm.index), unb, nil)
}

// schedulerStep runs one hypervisor tick: charge runtime, expire
// timeslices, then invoke the plugged-in scheduling function and apply its
// decisions (the paper's Scheduling_Func output gate calling the user's C
// function through the standard interface).
func (sys *System) schedulerStep(timestamp *san.ExtPlace[int64]) {
	now := *timestamp.Peek()
	pc := sys.pcpus.Peek()
	n := len(sys.vcpus)

	if sys.pendingOut == nil {
		sys.pendingOut = make([]bool, n)
		sys.viewBuf = make([]VCPUView, n)
		sys.pviewBuf = make([]PCPUView, len(*pc))
		// A VCPU's identity never changes: write it once.
		for _, vc := range sys.vcpus {
			v := &sys.viewBuf[vc.id]
			v.ID = vc.id
			v.VM = vc.vm
			v.Sibling = vc.sibling
		}
	}
	pendingOut := sys.pendingOut
	if flt := sys.flt; flt != nil {
		// Per-tick fault scratch: read by the impulse rewards that fire on
		// Scheduling_Func right after this gate returns.
		flt.tickRecoveryTicks = 0
		flt.tickReseats = 0
		flt.tickMisdecisions = 0
	}
	if now > 0 { // no time has elapsed before the very first tick
		for _, vc := range sys.vcpus {
			if vc.host.Peek().PCPU < 0 {
				continue
			}
			h := vc.host.Get()
			h.Runtime++
			h.Timeslice--
			if h.Timeslice <= 0 {
				(*sys.pcpus.Get())[h.PCPU] = -1
				h.PCPU = -1
				vc.schedOut.Add(1)
				pendingOut[vc.id] = true
			}
		}
	}

	views := sys.viewBuf
	for _, vc := range sys.vcpus {
		s := vc.slot.Peek()
		h := vc.host.Peek()
		status := s.Status
		if pendingOut[vc.id] {
			// Read once per tick: clear it for the next one here.
			pendingOut[vc.id] = false
			status = Inactive
		}
		if sys.parked != nil && sys.parked[vc.vm] {
			status = Parked
		}
		// Field writes through a pointer: assigning a composite literal
		// builds the struct in a temporary and block-copies it into the
		// slice, which shows up as measurable copy time at tick rate.
		v := &views[vc.id]
		v.Status = status
		v.RemainingLoad = s.RemainingLoad
		v.SyncPoint = s.SyncPoint
		v.PCPU = h.PCPU
		v.Timeslice = h.Timeslice
		v.LastScheduledIn = h.LastIn
		v.Runtime = h.Runtime
		v.Stalled = false // set below when a fault runtime is attached
	}
	pviews := sys.pviewBuf
	for i, v := range *pc {
		pviews[i] = PCPUView{ID: i, VCPU: v}
	}
	if flt := sys.flt; flt != nil {
		// Expose degraded-mode state to the scheduling function.
		for id := range views {
			views[id].Stalled = flt.stalled[id]
		}
		for i := range pviews {
			pviews[i].Down = flt.down[i]
			pviews[i].Throttle = flt.throttle[i]
		}
	}

	if h := sys.hist; h != nil {
		// Queue depth: VCPUs holding work but no PCPU, sampled every tick.
		// The same scan opens each queued VCPU's wait-time window; the
		// sample is taken when the scheduler's assignment lands.
		depth := int64(0)
		for i := range views {
			if views[i].PCPU < 0 && views[i].RemainingLoad > 0 {
				depth++
				if h.waitSince[i] < 0 {
					h.waitSince[i] = now
				}
			}
		}
		h.queue.Record(depth)
	}

	sys.acts.Reset()
	sys.sched.Schedule(now, views, pviews, &sys.acts)
	sys.applyActions(now, &sys.acts)

	*timestamp.Get() = now + 1
	sys.tickNow = now + 1
}

// applyActions validates and applies the scheduling function's decisions:
// preemptions first, then assignments.
func (sys *System) applyActions(now int64, acts *Actions) {
	pc := sys.pcpus.Peek()
	if flt := sys.flt; flt != nil && flt.misdecision {
		// Transient scheduler-misdecision fault: the hypervisor "loses"
		// this tick's decisions. They are counted, not applied — a fault
		// effect, not a scheduler bug, so no modeling error is raised.
		flt.tickMisdecisions += float64(len(acts.assigns) + len(acts.preempts))
		return
	}
	for _, v := range acts.preempts {
		if v < 0 || v >= len(sys.vcpus) {
			sys.model.ReportError(fmt.Errorf("core: scheduler %q preempted unknown VCPU %d", sys.sched.Name(), v))
			continue
		}
		h := sys.vcpus[v].host.Get()
		if h.PCPU < 0 {
			sys.model.ReportError(fmt.Errorf("core: scheduler %q preempted inactive VCPU %d", sys.sched.Name(), v))
			continue
		}
		p := h.PCPU
		(*sys.pcpus.Get())[p] = -1
		h.PCPU = -1
		h.Timeslice = 0
		sys.vcpus[v].schedOut.Add(1)
		if sys.rec != nil {
			sys.rec.Record(float64(now), obs.FlightDecision, 1, int64(uint32(v))|int64(p)<<32)
		}
	}
	for _, a := range acts.assigns {
		switch {
		case a.VCPU < 0 || a.VCPU >= len(sys.vcpus):
			sys.model.ReportError(fmt.Errorf("core: scheduler %q assigned unknown VCPU %d", sys.sched.Name(), a.VCPU))
			continue
		case a.PCPU < 0 || a.PCPU >= len(*pc):
			sys.model.ReportError(fmt.Errorf("core: scheduler %q assigned unknown PCPU %d", sys.sched.Name(), a.PCPU))
			continue
		case a.Timeslice < 1:
			sys.model.ReportError(fmt.Errorf("core: scheduler %q assigned non-positive timeslice %d", sys.sched.Name(), a.Timeslice))
			continue
		}
		if flt := sys.flt; flt != nil && flt.down[a.PCPU] {
			// Assigning a failed PCPU is a consequence of the injected
			// fault (schedulers ignoring PCPUView.Down), not a modeling
			// error: the decision is dropped and counted as a misdecision.
			flt.tickMisdecisions++
			continue
		}
		h := sys.vcpus[a.VCPU].host.Get()
		if h.PCPU >= 0 {
			sys.model.ReportError(fmt.Errorf("core: scheduler %q double-assigned VCPU %d", sys.sched.Name(), a.VCPU))
			continue
		}
		if (*pc)[a.PCPU] >= 0 {
			sys.model.ReportError(fmt.Errorf("core: scheduler %q assigned busy PCPU %d", sys.sched.Name(), a.PCPU))
			continue
		}
		(*sys.pcpus.Get())[a.PCPU] = a.VCPU
		h.PCPU = a.PCPU
		h.Timeslice = a.Timeslice
		h.LastIn = now
		sys.vcpus[a.VCPU].schedIn.Add(1)
		if sys.rec != nil {
			sys.rec.Record(float64(now), obs.FlightDecision, 0, int64(uint32(a.VCPU))|int64(a.PCPU)<<32)
		}
		if hh := sys.hist; hh != nil && hh.waitSince[a.VCPU] >= 0 {
			hh.wait.Record(now - hh.waitSince[a.VCPU])
			hh.waitSince[a.VCPU] = -1
		}
		if flt := sys.flt; flt != nil && flt.pendingRecovery[a.PCPU] >= 0 {
			// First assignment after the PCPU's restart closes its
			// recovery window.
			flt.tickRecoveryTicks += float64(now - flt.pendingRecovery[a.PCPU])
			flt.tickReseats++
			flt.pendingRecovery[a.PCPU] = -1
		}
	}
}

// registerRewards defines the paper's reward variables on the model:
// per-VCPU availability (ACTIVE time), per-VCPU utilization (BUSY time),
// per-PCPU utilization (ASSIGNED time), their averages, and job-dispatch
// impulse counters.
func registerRewards(sys *System) {
	m := sys.model
	// Documented references let sanalyze cross-check every reward against
	// the model structure (the reward functions themselves are closures).
	// Most rewards read only a slot's Status, which changes far less often
	// than the RemainingLoad and Done a busy tick writes: they ref the
	// slot's Status projection, so a tick re-evaluates them only when the
	// status moved.
	slotNames := make([]string, len(sys.vcpus))
	statusRefs := make([]string, len(sys.vcpus))
	for i, vc := range sys.vcpus {
		slotNames[i] = vc.slot.Name()
		statusRefs[i] = vc.slot.Project("Status", slotStatus)
	}
	blockedNames := make([]string, len(sys.vms))
	for i, vm := range sys.vms {
		blockedNames[i] = vm.blocked.Name()
	}
	// spinning() also reads SyncPoint and RemainingLoad, but only in a
	// spinlock VM; without one, the spin-sensitive rewards read Status
	// alone. With a fault plan, spinning() additionally depends on the
	// injected stall state, which changes exactly when the fault marker
	// places do: document them so the incidence index re-evaluates the
	// spin-sensitive rewards on fault transitions.
	spinRefs := statusRefs
	for _, vm := range sys.vms {
		if vm.syncKind == workload.SyncSpinlock {
			spinRefs = slotNames
			break
		}
	}
	if sys.inj != nil {
		spinRefs = append(append([]string(nil), spinRefs...), sys.inj.MarkerNames()...)
	}
	for _, vc := range sys.vcpus {
		vc := vc
		m.AddRateReward(AvailabilityMetric(vc.vm, vc.sibling), func() float64 {
			if vc.slot.Peek().Status.Active() {
				return 1
			}
			return 0
		}, statusRefs[vc.id])
		m.AddRateReward(VCPUUtilizationMetric(vc.vm, vc.sibling), func() float64 {
			if vc.slot.Peek().Status == Busy {
				return 1
			}
			return 0
		}, statusRefs[vc.id])
	}
	for p := 0; p < sys.cfg.PCPUs; p++ {
		p := p
		m.AddRateReward(PCPUUtilizationMetric(p), func() float64 {
			if (*sys.pcpus.Peek())[p] >= 0 {
				return 1
			}
			return 0
		}, sys.pcpus.Name())
	}
	m.AddRateReward(AvailabilityAvgMetric, func() float64 {
		active := 0
		for _, vc := range sys.vcpus {
			if vc.slot.Peek().Status.Active() {
				active++
			}
		}
		return float64(active) / float64(len(sys.vcpus))
	}, statusRefs...)
	m.AddRateReward(VCPUUtilizationAvgMetric, func() float64 {
		busy := 0
		for _, vc := range sys.vcpus {
			if vc.slot.Peek().Status == Busy {
				busy++
			}
		}
		return float64(busy) / float64(len(sys.vcpus))
	}, statusRefs...)
	m.AddRateReward(PCPUUtilizationAvgMetric, func() float64 {
		used := 0
		for _, v := range *sys.pcpus.Peek() {
			if v >= 0 {
				used++
			}
		}
		return float64(used) / float64(sys.cfg.PCPUs)
	}, sys.pcpus.Name())
	m.AddRateReward(BlockedFractionMetric, func() float64 {
		blocked := 0
		for _, vm := range sys.vms {
			if vm.blocked.Tokens() > 0 {
				blocked++
			}
		}
		return float64(blocked) / float64(len(sys.vms))
	}, blockedNames...)
	m.AddRateReward(SpinFractionMetric, func() float64 {
		spinning := 0
		for _, vm := range sys.vms {
			for _, vc := range vm.vcpus {
				if vm.spinning(vc) {
					spinning++
				}
			}
		}
		return float64(spinning) / float64(len(sys.vcpus))
	}, spinRefs...)
	m.AddRateReward(EffectiveUtilizationMetric, func() float64 {
		working := 0
		for _, vm := range sys.vms {
			for _, vc := range vm.vcpus {
				if vc.slot.Peek().Status == Busy && !vm.spinning(vc) {
					working++
				}
			}
		}
		return float64(working) / float64(len(sys.vcpus))
	}, spinRefs...)
	registerFaultRewards(sys, statusRefs)
}

// slotStatus is the key of a slot's Status projection.
func slotStatus(s *Slot) uint64 { return uint64(s.Status) }

// registerFaultRewards defines the dependability reward variables of a
// fault campaign; a healthy system (no plan) registers nothing. statusRefs
// are the slots' Status projections, indexed by VCPU id.
func registerFaultRewards(sys *System, statusRefs []string) {
	flt := sys.flt
	if flt == nil {
		return
	}
	m := sys.model
	degRefs := append(append([]string(nil), statusRefs...), sys.inj.MarkerNames()...)
	// Availability accrued only while degraded; divided by the degraded
	// fraction (faults.DegradedMetric, registered by the Injector) it
	// gives availability-under-faults.
	m.AddRateReward(faults.AvailDegradedMetric, func() float64 {
		if !flt.degraded() {
			return 0
		}
		active := 0
		for _, vc := range sys.vcpus {
			if vc.slot.Peek().Status.Active() {
				active++
			}
		}
		return float64(active) / float64(len(sys.vcpus))
	}, degRefs...)
	// Per-tick fault accounting, read off the scratch the scheduling step
	// fills; fire() evaluates impulses after the output gate, so each
	// completion observes its own tick's values.
	m.AddImpulseReward(faults.RecoveryTicksMetric, sys.schedFn, func() float64 {
		return flt.tickRecoveryTicks
	})
	m.AddImpulseReward(faults.ReseatsMetric, sys.schedFn, func() float64 {
		return flt.tickReseats
	})
	m.AddImpulseReward(faults.MisdecisionsMetric, sys.schedFn, func() float64 {
		return flt.tickMisdecisions
	})
}
