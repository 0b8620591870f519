// Package core implements the paper's primary contribution: a model of a
// complete virtualization system — workload generators, per-VM job
// schedulers, VCPUs, and a hypervisor-level VCPU scheduler with an open
// interface for user-defined scheduling algorithms — expressed as composed
// Stochastic Activity Network sub-models (the paper's Figures 2–7) and
// executed by the SAN engine in internal/san.
//
// The scheduling-function interface mirrors the paper's C interface
//
//	bool schedule(VCPU_host_external* vcpus, int num_vcpu,
//	              PCPU_external* pcpus, int num_pcpu, long timestamp)
//
// as the Scheduler interface: each clock tick the framework passes the full
// VCPU and PCPU state to the plugged-in algorithm, which records assignment
// and preemption decisions.
package core

import (
	"fmt"
	"sort"
)

// Status is the state of a VCPU (paper §III.B.2).
type Status int

// VCPU states. READY and BUSY are together the ACTIVE states; an INACTIVE
// VCPU holds no PCPU but may retain unfinished load and a synchronization
// point (the preempted-lock-holder scenario).
const (
	Inactive Status = iota + 1 // not assigned to any PCPU
	Ready                      // assigned a PCPU, no workload
	Busy                       // assigned a PCPU, processing a workload
)

// Parked marks a VCPU whose VM is not admitted on this host (cluster
// orchestration: the slot is provisioned capacity awaiting a dispatch or
// the target of an in-flight migration). Parked is the Status zero value,
// outside the paper's state machine: it is not Active, and schedulers —
// which admit on Status == Inactive — never assign a parked VCPU. It
// appears only in scheduler views; the underlying slot marking stays
// Inactive so admission needs no marking mutation.
const Parked Status = 0

// String returns the paper's name for the status.
func (s Status) String() string {
	switch s {
	case Parked:
		return "PARKED"
	case Inactive:
		return "INACTIVE"
	case Ready:
		return "READY"
	case Busy:
		return "BUSY"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Active reports whether the status is one of the ACTIVE states.
func (s Status) Active() bool { return s == Ready || s == Busy }

// VCPUView is the per-VCPU state passed to scheduling functions; it mirrors
// the paper's VCPU_host_external layout (plus VM topology and cumulative
// runtime, which the paper's algorithms derive from timestamps).
type VCPUView struct {
	// ID is the global VCPU index in the system.
	ID int
	// VM is the index of the owning VM; Sibling is the VCPU's index
	// within that VM.
	VM      int
	Sibling int
	// Status is the current VCPU state.
	Status Status
	// RemainingLoad is the unfinished processing time of the current
	// workload, in ticks.
	RemainingLoad int64
	// SyncPoint reports whether the current workload carries a barrier
	// synchronization point.
	SyncPoint bool
	// PCPU is the assigned physical CPU, or -1.
	PCPU int
	// Timeslice is the remaining time the VCPU may keep its PCPU.
	Timeslice int64
	// LastScheduledIn is the timestamp of the last Schedule_In event
	// (the paper's Last_Scheduled_In field), or -1 if never scheduled.
	LastScheduledIn int64
	// Runtime is the cumulative number of ticks the VCPU has held a
	// PCPU; co-scheduling algorithms derive sibling skew from it.
	Runtime int64
	// Stalled reports that an injected fault (internal/faults VCPU stall)
	// is freezing the VCPU's progress: it keeps its PCPU and status but
	// completes no work. Always false without a fault plan.
	Stalled bool
}

// PCPUView is the per-PCPU state passed to scheduling functions; it mirrors
// the paper's PCPU_external, extended with the degraded-mode state injected
// by internal/faults (both fields stay zero without a fault plan).
type PCPUView struct {
	// ID is the PCPU index.
	ID int
	// VCPU is the VCPU currently assigned, or -1 when IDLE.
	VCPU int
	// Down reports a fail-stop fault: the PCPU accepts no assignments
	// until it restarts (assignments to a down PCPU are discarded).
	Down bool
	// Throttle, when nonzero, is the PCPU's degraded speed as a fraction
	// of full speed (a frequency-throttle fault); 0 means full speed.
	Throttle float64
}

// Idle reports whether the PCPU can accept an assignment: no VCPU is
// assigned and the PCPU is not failed. Schedulers built on Idle/IdlePCPUs
// are therefore fault-aware without further changes.
func (p PCPUView) Idle() bool { return p.VCPU < 0 && !p.Down }

// Assign is one scheduling decision: give a PCPU to a VCPU for a timeslice.
type Assign struct {
	VCPU      int
	PCPU      int
	Timeslice int64
}

// Actions collects the decisions of one scheduling-function invocation. The
// framework applies preemptions first, then assignments, and validates both
// against the marking.
type Actions struct {
	assigns  []Assign
	preempts []int
}

// Assign records that vcpu should be scheduled onto pcpu with the given
// timeslice.
func (a *Actions) Assign(vcpu, pcpu int, timeslice int64) {
	a.assigns = append(a.assigns, Assign{VCPU: vcpu, PCPU: pcpu, Timeslice: timeslice})
}

// Preempt records that vcpu should relinquish its PCPU (Schedule_Out)
// before its timeslice expires.
func (a *Actions) Preempt(vcpu int) {
	a.preempts = append(a.preempts, vcpu)
}

// Assigns returns a copy of the recorded assignments.
func (a *Actions) Assigns() []Assign { return append([]Assign(nil), a.assigns...) }

// Preempts returns a copy of the recorded preemptions.
func (a *Actions) Preempts() []int { return append([]int(nil), a.preempts...) }

// Recorded returns the recorded assignments and preemptions without
// copying. The slices alias the accumulator: they are valid until the next
// Reset, Assign or Preempt and must not be modified.
func (a *Actions) Recorded() (assigns []Assign, preempts []int) { return a.assigns, a.preempts }

// Empty reports whether no decision was recorded.
func (a *Actions) Empty() bool { return len(a.assigns) == 0 && len(a.preempts) == 0 }

// Reset clears the recorded decisions, retaining capacity so an engine can
// reuse one Actions for every tick without allocating.
func (a *Actions) Reset() {
	a.assigns = a.assigns[:0]
	a.preempts = a.preempts[:0]
}

// Scheduler is the pluggable VCPU scheduling algorithm, the Go counterpart
// of the paper's C function-call interface. Schedule is invoked once per
// clock tick after timeslice accounting, except that the fast engine lets
// a TickSkipper stand in for a run of calls that would record nothing;
// vcpus and pcpus describe the complete system state, and decisions are
// recorded on acts.
//
// Implementations may keep internal state across calls (run queues, skew
// counters); a fresh Scheduler is constructed for every replication, so no
// reset mechanism is needed.
//
// The vcpus and pcpus slices are engine-owned and reused on every call: the
// fast engine (internal/fastsim) hands its live VCPU and PCPU state, the
// SAN engine a buffer it refills from the marking. A scheduler must
// therefore not modify them — on the fast engine a write would change the
// simulated system, not a copy — nor retain them or acts past the call
// (both engines write each view's ID, VM and Sibling only once). The
// VCPU set and each VCPU's VM membership (ID, VM, Sibling) are fixed for a
// scheduler's lifetime — only the state fields change, and a VM that is
// not admitted on a host shows up as Parked statuses, not as missing
// views — so a scheduler may derive the gang topology once (see Gangs).
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Schedule records assignment/preemption decisions for the current
	// tick. now is the tick timestamp, starting at 0.
	Schedule(now int64, vcpus []VCPUView, pcpus []PCPUView, acts *Actions)
}

// TickSkipper is an optional Scheduler extension that lets the fast engine
// advance over quiet ticks in one step. SkipTicks reports how many of the
// coming Schedule calls, at most limit, would record nothing while the
// views' statuses and PCPU assignments stay as they are now, and leaves
// the scheduler's state as those calls would have left it. The engine
// asks only when the statuses and assignments do stay put over the next
// limit ticks: in the calls skipped, only each view's Timeslice, Runtime
// and RemainingLoad would differ from what SkipTicks sees. The views are
// read-only, as for Schedule. Returning 0 is always correct: the engine
// then calls Schedule as usual.
type TickSkipper interface {
	SkipTicks(vcpus []VCPUView, pcpus []PCPUView, limit int64) int64
}

// SchedulerFactory constructs a fresh Scheduler for one replication.
type SchedulerFactory func() Scheduler

// SiblingsOf groups VCPU IDs by VM, derived from the views. Schedulers use
// it to discover gang membership.
func SiblingsOf(vcpus []VCPUView) map[int][]int {
	var g Gangs
	g.Derive(vcpus)
	byVM := make(map[int][]int, g.Len())
	for i, vm := range g.VMs() {
		byVM[vm] = g.Members(i)
	}
	return byVM
}

// Gangs is the VM topology of a system, derived from the scheduler views:
// the VM ids in ascending order, each VM's VCPU ids in sibling order, and
// each VM id's position. Under the Scheduler contract the topology is
// fixed for a scheduler's lifetime, so a scheduler derives it on its first
// call and reuses it; the zero value holds no topology yet. VM ids must be
// non-negative, as the framework's views always are.
type Gangs struct {
	vms     []int   // ascending distinct VM ids
	members [][]int // members[i]: VCPU ids of vms[i], sibling order
	pos     []int   // pos[vm]: index of vm in vms, or -1
	nvcpus  int     // len(vcpus) of the view derived from
	derived bool
}

// Derive builds the topology from vcpus unless it was already derived from
// a view of the same length, and reports whether it (re)built. Schedulers
// call it at the top of every Schedule, resizing any per-VCPU or per-VM
// state when it returns true.
func (g *Gangs) Derive(vcpus []VCPUView) bool {
	if g.derived && g.nvcpus == len(vcpus) {
		return false
	}
	g.derived, g.nvcpus = true, len(vcpus)
	maxVM := -1
	for _, v := range vcpus {
		if v.VM > maxVM {
			maxVM = v.VM
		}
	}
	g.pos = make([]int, maxVM+1)
	for i := range g.pos {
		g.pos[i] = -1
	}
	g.vms = g.vms[:0]
	for _, v := range vcpus {
		if g.pos[v.VM] < 0 {
			g.pos[v.VM] = 0 // mark seen; positions assigned below
			g.vms = append(g.vms, v.VM)
		}
	}
	sort.Ints(g.vms)
	g.members = make([][]int, len(g.vms))
	for i, vm := range g.vms {
		g.pos[vm] = i
	}
	for _, v := range vcpus {
		i := g.pos[v.VM]
		g.members[i] = append(g.members[i], v.ID)
	}
	for _, ids := range g.members {
		sort.Slice(ids, func(i, j int) bool {
			return vcpus[ids[i]].Sibling < vcpus[ids[j]].Sibling
		})
	}
	return true
}

// Len returns the number of VMs.
func (g *Gangs) Len() int { return len(g.vms) }

// VMs returns the VM ids in ascending order. The slice is shared: callers
// must not modify it.
func (g *Gangs) VMs() []int { return g.vms }

// Members returns the VCPU ids, in sibling order, of the VM at position i
// of VMs(). The slice is shared: callers must not modify it.
func (g *Gangs) Members(i int) []int { return g.members[i] }

// Pos returns the position of VM id vm in VMs().
func (g *Gangs) Pos(vm int) int { return g.pos[vm] }

// AppendIdlePCPUs appends the IDs of idle PCPUs, in ascending order, to dst
// and returns the extended slice. Schedulers pass a reused buffer
// truncated to zero length, so the per-tick scan does not allocate.
func AppendIdlePCPUs(dst []int, pcpus []PCPUView) []int {
	for _, p := range pcpus {
		if p.Idle() {
			dst = append(dst, p.ID)
		}
	}
	return dst
}
