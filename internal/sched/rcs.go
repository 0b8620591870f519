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

var (
	_ core.Scheduler   = (*RelaxedCo)(nil)
	_ core.TickSkipper = (*RelaxedCo)(nil)
)

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

// derive derives the gang topology on the first call and sizes the
// per-VCPU and per-VM state to it.
func (r *RelaxedCo) derive(vcpus []core.VCPUView) {
	if r.gangs.Derive(vcpus) {
		r.skew = make([]int64, len(vcpus))
		r.coMode = make([]bool, r.gangs.Len())
		r.inactive = make([]bool, len(vcpus))
	}
}

// Schedule implements core.Scheduler.
func (r *RelaxedCo) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	r.derive(vcpus)
	r.updateSkews(vcpus)

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

// SkipTicks implements core.TickSkipper. With statuses fixed, every skew
// moves one step per call in a fixed direction, so each gang's peak skew,
// and with it its co-mode, follows in closed form (see trend). The calls
// skipped are those before the first that would co-stop a gang (a gang in
// co-mode with a member not INACTIVE) or, while a PCPU is idle, start a
// VCPU (a whole INACTIVE gang that fits the idle PCPUs, or an INACTIVE
// VCPU of a gang out of co-mode). SkipTicks then applies those calls'
// skew and co-mode updates and their queue upkeep.
func (r *RelaxedCo) SkipTicks(vcpus []core.VCPUView, pcpus []core.PCPUView, limit int64) int64 {
	r.derive(vcpus)
	r.idle = core.AppendIdlePCPUs(r.idle[:0], pcpus)
	idle := len(r.idle)
	n := limit
	var t trend
	for vi := range r.coMode {
		t.measure(r.gangs.Members(vi), vcpus, r.skew)
		if n = min(n, r.quiet(&t, r.coMode[vi], idle, n)); n <= 0 {
			return 0
		}
	}
	for vi := range r.coMode {
		t.measure(r.gangs.Members(vi), vcpus, r.skew)
		if t.size > 1 {
			r.coMode[vi] = r.modeAfter(&t, r.coMode[vi], n)
		}
		for _, id := range r.gangs.Members(vi) {
			if t.grows() && !vcpus[id].Status.Active() {
				r.skew[id] += n
			} else {
				r.skew[id] = max(r.skew[id]-n, 0)
			}
		}
	}
	// The first skipped call admits the INACTIVE VCPUs not yet queued and,
	// with a PCPU idle, drops the queued ones no longer INACTIVE; the
	// calls after it find nothing to admit or drop.
	q := r.queue
	q.admitInactive(vcpus)
	for i := 0; idle > 0 && i < len(q.order); {
		if vcpus[q.order[i]].Status != core.Inactive {
			q.removeAt(i)
			continue
		}
		i++
	}
	return n
}

// trend is a gang's outlook over calls in which no status changes. Its
// members not ACTIVE gain one skew per call while a sibling runs; the
// others lose one, floored at zero. up and down are the largest skews of
// the gaining and of the losing members, so the gang's peak skew after j
// calls is max(up+j, down-j, 0) when it grows and max(down-j, 0) when not.
type trend struct {
	size, active, inactive int
	up, down               int64
}

// measure fills t from the gang's current statuses and skews.
func (t *trend) measure(gang []int, vcpus []core.VCPUView, skew []int64) {
	*t = trend{size: len(gang)}
	for _, id := range gang {
		switch st := vcpus[id].Status; {
		case st.Active():
			t.active++
			t.down = max(t.down, skew[id])
		default:
			if st == core.Inactive {
				t.inactive++
			}
			t.up = max(t.up, skew[id])
		}
	}
	if t.active == 0 {
		t.down = t.up // nobody runs: every member decays
	}
}

// grows reports whether some member's skew grows: some members run and
// some do not.
func (t *trend) grows() bool { return t.active > 0 && t.active < t.size }

// peak returns the gang's largest skew after j calls.
func (t *trend) peak(j int64) int64 {
	if t.grows() {
		return max(t.up+j, t.down-j, 0)
	}
	return max(t.down-j, 0)
}

// quiet returns how many of the next calls, at most limit, pass before
// one that would co-stop the gang of t or start one of its VCPUs, given
// its co-mode now and the idle PCPU count.
func (r *RelaxedCo) quiet(t *trend, mode bool, idle int, limit int64) int64 {
	startable := idle > 0 && t.inactive > 0
	if startable && t.inactive == t.size && t.size <= idle {
		return 0 // a co-start
	}
	if t.size == 1 {
		return limit // no sibling: no skew, never co-mode
	}
	p1 := t.peak(1)
	mode1 := p1 > r.enterSkew || mode && p1 >= r.exitSkew
	if t.inactive < t.size {
		// Some member is not INACTIVE, so co-mode means a co-stop, and
		// outside it an INACTIVE member single-starts on an idle PCPU.
		if mode1 || startable {
			return 0
		}
		if !t.grows() {
			return limit // the peak only falls: co-mode stays off
		}
		// p1 <= enterSkew, so the falling part of the peak stays at or
		// below it; the rising part passes it at call enterSkew-up+1.
		return min(limit, r.enterSkew-t.up)
	}
	// Every member is INACTIVE and the peak only falls: co-mode can only
	// end, and the gang waits only while it lasts and a PCPU is idle.
	if !startable {
		return limit
	}
	if !mode1 {
		return 0
	}
	// Co-mode lasts while the peak stays at or above c.
	c := min(r.exitSkew, r.enterSkew+1)
	if c <= 0 {
		return limit
	}
	return min(limit, t.down-c)
}

// modeAfter returns the gang's co-mode after n calls that quiet allows,
// from co-mode mode now.
func (r *RelaxedCo) modeAfter(t *trend, mode bool, n int64) bool {
	if t.grows() {
		return false // co-mode on would co-stop the running members
	}
	// The peak only falls: the gang is in co-mode after call n if its
	// peak is above enterSkew, or at least exitSkew with co-mode entered
	// before (then, or at the first call, where the peak was highest).
	p := t.peak(n)
	return p > r.enterSkew || p >= r.exitSkew && (mode || t.peak(1) > r.enterSkew)
}

// updateSkews advances the cumulative skew counters and applies the
// enter/exit hysteresis in the same walk over each gang: +1 per tick a
// VCPU is descheduled while a sibling runs; -1 (floored at zero) per tick
// it runs or while its whole gang is stopped. A one-VCPU gang has no
// sibling, so its skew stays zero and it never enters co-mode: it is
// skipped.
func (r *RelaxedCo) updateSkews(vcpus []core.VCPUView) {
	for vi := 0; vi < r.gangs.Len(); vi++ {
		gang := r.gangs.Members(vi)
		if len(gang) == 1 {
			continue
		}
		anyActive := false
		for _, id := range gang {
			if vcpus[id].Status.Active() {
				anyActive = true
				break
			}
		}
		var max int64
		for _, id := range gang {
			if !vcpus[id].Status.Active() && anyActive {
				r.skew[id]++
			} else if r.skew[id] > 0 {
				r.skew[id]--
			}
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
