// Package sched implements VCPU scheduling algorithms behind the
// framework's pluggable scheduling-function interface (core.Scheduler): the
// paper's three evaluated algorithms — Round-Robin (RRS), Strict
// Co-Scheduling (SCS), and Relaxed Co-Scheduling (RCS) — plus two
// extensions, Balance scheduling (Sukwong & Kim) and a proportional-share
// Credit scheduler.
//
// All schedulers are single-replication objects: construct a fresh one per
// run through a core.SchedulerFactory.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"vcpusim/internal/core"
)

// RoundRobin is the naïve Round-Robin VCPU scheduler (the paper's RRS): a
// circular cursor over all VCPUs; every idle PCPU is granted to the next
// waiting VCPU after the cursor with a fresh timeslice, regardless of VM
// topology. The rotating cursor guarantees the long-run fairness the
// paper's Figure 8 attributes to RRS: when several VCPUs deschedule in the
// same tick, the grant order continues from where the last round stopped
// instead of restarting at VCPU 0.
type RoundRobin struct {
	timeslice int64
	cursor    int
	idle      []int // per-call idle-PCPU scratch
}

var _ core.Scheduler = (*RoundRobin)(nil)

// NewRoundRobin returns an RRS scheduler granting the given timeslice per
// assignment.
func NewRoundRobin(timeslice int64) *RoundRobin {
	return &RoundRobin{timeslice: timeslice}
}

// Name implements core.Scheduler.
func (r *RoundRobin) Name() string { return "RRS" }

// Schedule implements core.Scheduler.
func (r *RoundRobin) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if len(vcpus) == 0 {
		return
	}
	r.cursor %= len(vcpus)
	r.idle = core.AppendIdlePCPUs(r.idle[:0], pcpus)
	scanned := 0
	for _, p := range r.idle {
		assigned := false
		for ; scanned < len(vcpus); scanned++ {
			id := (r.cursor + scanned) % len(vcpus)
			if vcpus[id].Status == core.Inactive {
				acts.Assign(id, p, r.timeslice)
				scanned++
				assigned = true
				break
			}
		}
		if !assigned {
			break
		}
	}
	r.cursor = (r.cursor + scanned) % len(vcpus)
}

// vcpuQueue is a FIFO of waiting VCPUs with set semantics: a VCPU appears
// at most once. Membership is a slice indexed by VCPU id, grown on demand,
// so steady-state pushes and removals do not allocate.
type vcpuQueue struct {
	order  []int
	member []bool
	fresh  []waiter // admitInactive scratch
}

// waiter is an admission candidate's sort key.
type waiter struct {
	runtime int64
	id      int
}

func newVCPUQueue() *vcpuQueue { return &vcpuQueue{} }

// admitInactive appends every INACTIVE VCPU not yet queued. VCPUs admitted
// in the same call are ordered least-served first (ascending cumulative
// Runtime, then ID): when several VCPUs deschedule in the same tick, naive
// ID order would systematically favor low IDs at every synchronized
// expiry wave. IDs are unique, so the order is total and any correct sort
// yields it.
func (q *vcpuQueue) admitInactive(vcpus []core.VCPUView) {
	fresh := q.fresh[:0]
	for i := range vcpus {
		v := &vcpus[i]
		if v.Status == core.Inactive && !q.has(v.ID) {
			fresh = append(fresh, waiter{runtime: v.Runtime, id: v.ID})
		}
	}
	slices.SortFunc(fresh, func(a, b waiter) int {
		if c := cmp.Compare(a.runtime, b.runtime); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, w := range fresh {
		q.push(w.id)
	}
	q.fresh = fresh
}

// has reports whether id is queued.
func (q *vcpuQueue) has(id int) bool { return id < len(q.member) && q.member[id] }

func (q *vcpuQueue) push(id int) {
	if q.has(id) {
		return
	}
	if id >= len(q.member) {
		q.member = append(q.member, make([]bool, id+1-len(q.member))...)
	}
	q.order = append(q.order, id)
	q.member[id] = true
}

func (q *vcpuQueue) pop() (int, bool) {
	if len(q.order) == 0 {
		return 0, false
	}
	id := q.order[0]
	q.removeAt(0)
	return id, true
}

// remove deletes id from the queue wherever it is.
func (q *vcpuQueue) remove(id int) {
	if !q.has(id) {
		return
	}
	q.removeAt(slices.Index(q.order, id))
}

// removeAt deletes the entry at position i, shifting the tail down in
// place so the backing array is reused.
func (q *vcpuQueue) removeAt(i int) {
	q.member[q.order[i]] = false
	q.order = append(q.order[:i], q.order[i+1:]...)
}

// len returns the number of queued VCPUs.
func (q *vcpuQueue) len() int { return len(q.order) }

func (q *vcpuQueue) String() string { return fmt.Sprint(q.order) }
