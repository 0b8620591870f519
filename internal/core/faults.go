package core

import (
	"fmt"

	"vcpusim/internal/faults"
	"vcpusim/internal/san"
)

// faultRuntime is the degraded-mode state of a system built with a fault
// plan: which PCPUs are down or throttled, which VCPUs are stalled, and
// whether a scheduler-misdecision window is open. It is nil on a healthy
// system, so every fault hook on the hot path is one nil test.
//
// The runtime state mirrors the fault marker places the Injector maintains
// in the SAN model (Down_PCPU*, Throttled_PCPU*, ...); the applier updates
// both in the same firing, so rate rewards that document the marker places
// as Refs are re-evaluated exactly when this state changes.
type faultRuntime struct {
	plan     *faults.Plan
	down     []bool
	throttle []float64
	// credit accumulates fractional progress per throttled PCPU: each
	// tick adds the throttle factor, and the hosted VCPU progresses when
	// a whole tick of credit is banked.
	credit  []float64
	stalled []bool
	// misdecision is true while a transient scheduler-misdecision window
	// is open: every decision the scheduling function records is
	// discarded (and counted) instead of applied.
	misdecision bool
	// pendingRecovery[p] is the restart timestamp of PCPU p while it
	// waits for its first post-restart assignment, or -1. The gap between
	// restart and that assignment is the recovery time.
	pendingRecovery []int64
	// stallStart[v] is the injection timestamp of VCPU v's active stall,
	// feeding the stall-duration histogram on recovery.
	stallStart []int64

	// Per-tick scratch, zeroed at the top of schedulerStep and read by
	// the impulse rewards on Scheduling_Func after its output gate ran.
	tickRecoveryTicks float64
	tickReseats       float64
	tickMisdecisions  float64
}

func newFaultRuntime(plan *faults.Plan, npcpus, nvcpus int) *faultRuntime {
	flt := &faultRuntime{
		plan:            plan,
		down:            make([]bool, npcpus),
		throttle:        make([]float64, npcpus),
		credit:          make([]float64, npcpus),
		stalled:         make([]bool, nvcpus),
		pendingRecovery: make([]int64, npcpus),
		stallStart:      make([]int64, nvcpus),
	}
	flt.reset()
	return flt
}

// reset restores the healthy state for the next replication.
func (flt *faultRuntime) reset() {
	for i := range flt.down {
		flt.down[i] = false
		flt.throttle[i] = 0
		flt.credit[i] = 0
		flt.pendingRecovery[i] = -1
	}
	for i := range flt.stalled {
		flt.stalled[i] = false
		flt.stallStart[i] = 0
	}
	flt.misdecision = false
	flt.tickRecoveryTicks = 0
	flt.tickReseats = 0
	flt.tickMisdecisions = 0
}

// degraded reports whether any fault is currently active.
func (flt *faultRuntime) degraded() bool {
	if flt.misdecision {
		return true
	}
	for i := range flt.down {
		if flt.down[i] || flt.throttle[i] > 0 {
			return true
		}
	}
	for _, s := range flt.stalled {
		if s {
			return true
		}
	}
	return false
}

// faultApplier implements faults.Applier on a System: the injection
// surface through which the Injector's activities act on the
// virtualization model. Every method runs inside a fault activity's output
// gate, so marking writes are dirty-tracked like any other gate code.
type faultApplier struct {
	sys *System
}

func (a faultApplier) Now() int64 { return *a.sys.timestamp.Peek() }

// FailPCPU takes PCPU p down fail-stop: the hosted VCPU (if any) is
// evicted and its progress on the current workload is rolled back — the
// co-schedule abort of the paper's gang-scheduling discussion — and the
// PCPU accepts no assignments until RestorePCPU. Returns the rolled-back
// progress in ticks.
func (a faultApplier) FailPCPU(p int) int64 {
	sys := a.sys
	flt := sys.flt
	flt.down[p] = true
	flt.pendingRecovery[p] = -1
	v := (*sys.pcpus.Peek())[p]
	if v < 0 {
		return 0
	}
	vc := sys.vcpus[v]
	s := vc.slot.Get()
	lost := s.Done
	// The interrupted workload must be redone from its dispatch point.
	s.RemainingLoad += s.Done
	s.Done = 0
	h := vc.host.Get()
	h.PCPU = -1
	h.Timeslice = 0
	(*sys.pcpus.Get())[p] = -1
	vc.schedOut.Add(1)
	return lost
}

func (a faultApplier) RestorePCPU(p int) {
	flt := a.sys.flt
	flt.down[p] = false
	flt.pendingRecovery[p] = a.Now()
}

func (a faultApplier) ThrottlePCPU(p int, factor float64) {
	flt := a.sys.flt
	flt.throttle[p] = factor
	flt.credit[p] = 0
}

func (a faultApplier) UnthrottlePCPU(p int) {
	flt := a.sys.flt
	flt.throttle[p] = 0
	flt.credit[p] = 0
}

func (a faultApplier) StallVCPU(v int) {
	flt := a.sys.flt
	flt.stalled[v] = true
	flt.stallStart[v] = a.Now()
}

func (a faultApplier) UnstallVCPU(v int) {
	flt := a.sys.flt
	flt.stalled[v] = false
	if h := a.sys.hist; h != nil {
		h.stall.Record(a.Now() - flt.stallStart[v])
	}
}

func (a faultApplier) BeginMisdecision() { a.sys.flt.misdecision = true }
func (a faultApplier) EndMisdecision()   { a.sys.flt.misdecision = false }

// ArmInstance applies the system's fault plan Disabled flags to a
// compiled instance of its model (a no-op without a plan). Disabling
// persists across Instance.Reset, so one call per instance suffices;
// Instance.DisabledActivityNames then reports the dormant injectors,
// which structural analysis excludes from its certificates.
func (s *System) ArmInstance(in *san.Instance) error {
	if s.inj == nil {
		return nil
	}
	return s.inj.Arm(in)
}

// buildFaults composes the fault-injection submodel into the system and
// installs the degraded-mode runtime. Called by BuildSystem after the
// scheduling function is wired and before rewards are registered; a nil
// plan is a no-op, leaving the model byte-identical to a faultless build.
func buildFaults(sys *System) error {
	plan := sys.cfg.Faults
	if plan == nil {
		return nil
	}
	sys.flt = newFaultRuntime(plan, sys.cfg.PCPUs, len(sys.vcpus))
	fsub := sys.model.Sub("Faults")
	inj, err := faults.Attach(fsub, plan, sys.cfg.PCPUs, len(sys.vcpus), faultApplier{sys})
	if err != nil {
		return fmt.Errorf("core: attaching fault plan: %w", err)
	}
	sys.inj = inj

	// Document the crash gate's cross-submodel effects. FailPCPU runs
	// inside Inject_<name>'s output gate and evicts whichever VCPU
	// occupies the failed PCPU — rolling back its slot, clearing its host
	// state and the PCPU map entry, and raising its Schedule_Out
	// notification. The occupant is unknown statically, so every VCPU's
	// places are documented (zero-count: the write is declared, the
	// amount is marking-dependent). Without these links the structural
	// link-conformance check rightly flags the eviction as an undeclared
	// write. The same places are joined into the Faults submodel.
	injects := inj.InjectActivities()
	crashes := false
	for i := range plan.Faults {
		if plan.Faults[i].Kind != faults.KindPCPUCrash {
			continue
		}
		crashes = true
		act := injects[i]
		act.Link(san.LinkInput, sys.pcpus.Name())
		act.Link(san.LinkOutput, sys.pcpus.Name())
		for _, vc := range sys.vcpus {
			act.Link(san.LinkInput, vc.slot.Name())
			act.Link(san.LinkOutput, vc.slot.Name())
			act.Link(san.LinkInput, vc.host.Name())
			act.Link(san.LinkOutput, vc.host.Name())
			act.Link(san.LinkOutput, vc.schedOut.Name())
		}
	}
	if crashes {
		san.ShareExt(fsub, sys.pcpus)
		for _, vc := range sys.vcpus {
			san.ShareExt(fsub, vc.slot)
			san.ShareExt(fsub, vc.host)
			fsub.Share(vc.schedOut)
		}
	}

	flt := sys.flt
	for _, vm := range sys.vms {
		vm.stalled = func(id int) bool { return flt.stalled[id] }
	}
	return nil
}
