package sched

import (
	"vcpusim/internal/core"
)

// Balance implements balance scheduling (Sukwong & Kim, EuroSys 2011), the
// VCPU-stacking-avoidance algorithm the paper's introduction discusses: it
// keeps per-PCPU run queues and never places two sibling VCPUs in the same
// run queue, so siblings are never serialized behind each other on one
// physical core. Each PCPU serves its own queue head round-robin.
//
// It is an extension beyond the paper's three evaluated algorithms,
// included to demonstrate the open scheduling-function interface.
type Balance struct {
	timeslice int64
	queues    [][]int // per-PCPU run queues of waiting VCPUs
	queued    []bool  // per VCPU id: waiting in some run queue
}

var _ core.Scheduler = (*Balance)(nil)

// NewBalance returns a balance scheduler granting the given timeslice.
func NewBalance(timeslice int64) *Balance {
	return &Balance{timeslice: timeslice}
}

// Name implements core.Scheduler.
func (b *Balance) Name() string { return "Balance" }

// Schedule implements core.Scheduler.
func (b *Balance) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if b.queues == nil {
		b.queues = make([][]int, len(pcpus))
	}
	if b.queued == nil {
		b.queued = make([]bool, len(vcpus))
	}
	// Enqueue newly inactive VCPUs onto the shortest run queue that holds
	// no sibling (the balance placement rule).
	for _, v := range vcpus {
		if v.Status != core.Inactive {
			continue
		}
		if b.queued[v.ID] {
			continue
		}
		q := b.pickQueue(v, vcpus)
		b.queues[q] = append(b.queues[q], v.ID)
		b.queued[v.ID] = true
	}
	// Each idle PCPU serves the head of its own run queue.
	for _, p := range pcpus {
		if !p.Idle() || len(b.queues[p.ID]) == 0 {
			continue
		}
		// Pop by shifting the tail down so the queue's backing array is
		// reused instead of re-grown.
		q := b.queues[p.ID]
		id := q[0]
		b.queues[p.ID] = append(q[:0], q[1:]...)
		b.queued[id] = false
		acts.Assign(id, p.ID, b.timeslice)
	}
}

// pickQueue returns the index of the shortest run queue containing no
// sibling of v; if every queue holds a sibling (more siblings than PCPUs
// cannot happen under the framework's VCPUs<=PCPUs constraint), it falls
// back to the globally shortest queue.
func (b *Balance) pickQueue(v core.VCPUView, vcpus []core.VCPUView) int {
	best, bestLen := -1, int(^uint(0)>>1)
	fallback, fallbackLen := 0, int(^uint(0)>>1)
	for q := range b.queues {
		// A queue's effective length counts waiting VCPUs; ties break
		// toward lower PCPU index for determinism.
		l := len(b.queues[q])
		if l < fallbackLen {
			fallback, fallbackLen = q, l
		}
		if b.queueHasSibling(q, v, vcpus) {
			continue
		}
		if l < bestLen {
			best, bestLen = q, l
		}
	}
	if best < 0 {
		return fallback
	}
	return best
}

// queueHasSibling reports whether run queue q holds a sibling of v.
func (b *Balance) queueHasSibling(q int, v core.VCPUView, vcpus []core.VCPUView) bool {
	for _, id := range b.queues[q] {
		if vcpus[id].VM == v.VM && id != v.ID {
			return true
		}
	}
	return false
}
