package sched

import (
	"vcpusim/internal/core"
)

// RelaxedCo is the relaxed co-scheduling algorithm (the paper's RCS,
// VMware ESX 3/4 style). Outside co-scheduling mode it behaves like a fair
// rotation: single VCPUs may be scheduled whenever PCPUs are free ("in case
// there are not enough resources to perform a co-start, it allows a single
// VCPU to be scheduled"). The scheduler maintains a cumulative skew per
// VCPU that grows each tick the VCPU sits descheduled while a sibling
// runs. When a VM's maximum skew exceeds EnterSkew, the VM enters
// co-scheduling mode: all its running VCPUs are co-stopped and the VM "is
// forced to schedule in the co-start manner only" — its VCPUs may only be
// started all together — until the skew drops below ExitSkew.
//
// Skew decays one tick at a time while a VCPU runs, and also while its
// whole gang is stopped (no differential progress accrues when nobody
// runs); the latter is what lets a 2-VCPU VM on a single PCPU leave
// co-scheduling mode and run again, reproducing the paper's Figure 8
// observation that RCS schedules such a VM but gives its VCPUs less PCPU
// time than the 1-VCPU VMs receive. On adequately provisioned systems the
// skew never accumulates (siblings co-run in the natural rotation), so RCS
// behaves fairly — Figure 8's four-PCPU case — while the forced co-starts
// keep siblings co-running under contention, which is what keeps
// synchronization latency low in Figure 10 and PCPU utilization above 90 %
// in Figure 9.
type RelaxedCo struct {
	timeslice int64
	enterSkew int64
	exitSkew  int64

	queue  *vcpuQueue
	gangs  core.Gangs
	skew   []int64 // per VCPU id
	coMode []bool  // per VM position in gangs

	// Per-call scratch, reused so a tick does not allocate.
	inactive []bool
	idle     []int
}

var _ core.Scheduler = (*RelaxedCo)(nil)

// RelaxedCoParams configures RCS. Zero skew thresholds select defaults
// derived from the timeslice (EnterSkew = timeslice/3, ExitSkew =
// EnterSkew/2).
type RelaxedCoParams struct {
	Timeslice int64
	EnterSkew int64
	ExitSkew  int64
}

// NewRelaxedCo returns an RCS scheduler.
func NewRelaxedCo(p RelaxedCoParams) *RelaxedCo {
	if p.EnterSkew <= 0 {
		p.EnterSkew = p.Timeslice / 3
		if p.EnterSkew < 1 {
			p.EnterSkew = 1
		}
	}
	if p.ExitSkew <= 0 {
		p.ExitSkew = p.EnterSkew / 2
	}
	return &RelaxedCo{
		timeslice: p.Timeslice,
		enterSkew: p.EnterSkew,
		exitSkew:  p.ExitSkew,
		queue:     newVCPUQueue(),
	}
}

// Name implements core.Scheduler.
func (r *RelaxedCo) Name() string { return "RCS" }

// Schedule implements core.Scheduler.
func (r *RelaxedCo) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if r.gangs.Derive(vcpus) {
		r.skew = make([]int64, len(vcpus))
		r.coMode = make([]bool, r.gangs.Len())
		r.inactive = make([]bool, len(vcpus))
	}

	r.updateSkews(vcpus)
	r.updateCoMode()

	// Effective state for this tick: statuses after our own co-stops.
	inactive := r.inactive
	for i := range vcpus {
		v := &vcpus[i]
		inactive[v.ID] = v.Status == core.Inactive
	}
	idle := core.AppendIdlePCPUs(r.idle[:0], pcpus)

	// Co-stop: entering or staying in co-mode forcibly deschedules every
	// running member; the gang may only return via a co-start.
	for vi := range r.coMode {
		if !r.coMode[vi] {
			continue
		}
		for _, id := range r.gangs.Members(vi) {
			if !inactive[id] {
				acts.Preempt(id)
				inactive[id] = true
				idle = append(idle, vcpus[id].PCPU)
				r.queue.push(id)
			}
		}
	}
	r.idle = idle

	r.queue.admitInactive(vcpus)

	// Assignment: walk the rotation queue. A VCPU of a co-mode VM may
	// only start if its whole gang fits in the idle PCPUs (co-start);
	// otherwise it is skipped and the VM waits. Everyone else
	// single-starts.
	for len(idle) > 0 {
		id, coStart, ok := r.nextEligible(vcpus, inactive, len(idle))
		if !ok {
			break
		}
		if coStart {
			for _, g := range r.gangs.Members(r.gangs.Pos(vcpus[id].VM)) {
				acts.Assign(g, idle[0], r.timeslice)
				idle = idle[1:]
				inactive[g] = false
				r.queue.remove(g)
			}
			continue
		}
		acts.Assign(id, idle[0], r.timeslice)
		idle = idle[1:]
		inactive[id] = false
		r.queue.remove(id)
	}
}

// updateSkews advances the cumulative skew counters: +1 per tick a VCPU is
// descheduled while a sibling runs; -1 (floored at zero) per tick it runs
// or while its whole gang is stopped.
func (r *RelaxedCo) updateSkews(vcpus []core.VCPUView) {
	for vi := 0; vi < r.gangs.Len(); vi++ {
		gang := r.gangs.Members(vi)
		anyActive := false
		for _, id := range gang {
			if vcpus[id].Status.Active() {
				anyActive = true
				break
			}
		}
		for _, id := range gang {
			if !vcpus[id].Status.Active() && anyActive {
				r.skew[id]++
			} else if r.skew[id] > 0 {
				r.skew[id]--
			}
		}
	}
}

// updateCoMode applies the enter/exit hysteresis per VM.
func (r *RelaxedCo) updateCoMode() {
	for vi := range r.coMode {
		var max int64
		for _, id := range r.gangs.Members(vi) {
			if r.skew[id] > max {
				max = r.skew[id]
			}
		}
		if max > r.enterSkew {
			r.coMode[vi] = true
		} else if max < r.exitSkew {
			r.coMode[vi] = false
		}
	}
}

// nextEligible scans the queue head-first for the next schedulable VCPU,
// dropping entries that are no longer INACTIVE as it goes. For a co-mode
// VM the whole gang must be inactive and fit in the idle PCPUs (returning
// coStart=true); otherwise the entry is skipped.
func (r *RelaxedCo) nextEligible(vcpus []core.VCPUView, inactive []bool, idle int) (id int, coStart, ok bool) {
	q := r.queue
	for i := 0; i < len(q.order); {
		cand := q.order[i]
		if !inactive[cand] {
			q.removeAt(i)
			continue
		}
		vi := r.gangs.Pos(vcpus[cand].VM)
		gang := r.gangs.Members(vi)
		if len(gang) <= idle && gangInactive(gang, inactive) {
			// Best-effort co-start, opportunistic outside co-mode and
			// mandatory inside it.
			return cand, true, true
		}
		if !r.coMode[vi] {
			return cand, false, true
		}
		// Forced co-start not possible this tick: the VM waits.
		i++
	}
	return 0, false, false
}

// gangInactive reports whether every gang member is (effectively) INACTIVE.
func gangInactive(gang []int, inactive []bool) bool {
	for _, id := range gang {
		if !inactive[id] {
			return false
		}
	}
	return true
}
