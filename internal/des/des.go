// Package des implements the discrete-event simulation kernel underneath the
// SAN engine: a binary-heap future-event list ordered by (time, priority,
// sequence), a simulation clock, and event cancellation. Every determinism
// contract runs on this one kernel; contracts differ only in their variate
// streams.
//
// Determinism: events scheduled for the same time fire in priority order
// (lower first) and, within a priority, in scheduling order. Given the same
// seeds, a simulation therefore always produces the same trajectory.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Handler is the callback executed when an event fires.
type Handler func()

// Event is a scheduled occurrence. Events are created by Kernel.NewEvent,
// scheduled by ScheduleEventAt/ScheduleEventAfter, and may be cancelled
// until they fire.
type Event struct {
	time     float64
	priority int
	seq      uint64
	index    int // heap index; -1 when not queued
	handler  Handler
	name     string
}

// Pending reports whether the event is still queued (not fired, not
// cancelled).
func (e *Event) Pending() bool { return e.index >= 0 }

// Kernel is a discrete-event simulation executor over a binary-heap event
// list. The (time, priority, seq) order is total, so the pop sequence — and
// with it the trajectory — depends only on what was scheduled, never on the
// heap's layout. The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now       float64
	queue     []*Event
	seq       uint64
	fired     uint64
	scheduled uint64
	cancelled uint64
	// arena is the contiguous storage block NewEvent hands out reusable
	// events from after a Reserve: one allocation for a whole activation
	// set instead of one per event, and the events' hot fields (time, seq,
	// index) end up adjacent in memory for the heap's comparisons.
	arena []Event
}

// NewKernel returns a kernel with the clock at zero and an empty event list.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Reset rewinds the kernel to its initial state: clock at zero, empty
// event list, no events fired — and, critically for
// determinism, the event-sequence counter restarts at zero so same-time
// tie-breaking in a reused kernel matches a fresh one exactly. Events
// still pending are dequeued and marked not-pending; reusable events from
// NewEvent stay bound to their handlers and can be scheduled again. It
// never allocates and retains the queue's capacity.
func (k *Kernel) Reset() {
	for i, ev := range k.queue {
		ev.index = -1
		k.queue[i] = nil
	}
	k.queue = k.queue[:0]
	k.now = 0
	k.seq = 0
	k.fired = 0
	k.scheduled = 0
	k.cancelled = 0
}

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Scheduled returns the number of event-list insertions so far.
func (k *Kernel) Scheduled() uint64 { return k.scheduled }

// Cancelled returns the number of pending events removed by Cancel.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// NextTime returns the scheduled time of the earliest pending event without
// firing it, or +Inf when the event list is empty, in O(1) from the heap's
// root.
func (k *Kernel) NextTime() float64 {
	if len(k.queue) == 0 {
		return math.Inf(1)
	}
	return k.queue[0].time
}

// ErrPast is returned when scheduling before the current time.
var ErrPast = errors.New("des: schedule in the past")

// NewEvent returns an unqueued event bound to a fixed priority, name, and
// handler. The same event can be enqueued repeatedly through
// ScheduleEventAt/ScheduleEventAfter — after it fires or is cancelled it is
// free for reuse — so callers with a known activation set (one completion
// event per timed activity, say) schedule without per-activation
// allocation.
func (k *Kernel) NewEvent(priority int, name string, handler Handler) (*Event, error) {
	if handler == nil {
		return nil, fmt.Errorf("des: nil handler for event %q", name)
	}
	var ev *Event
	if len(k.arena) < cap(k.arena) {
		k.arena = k.arena[:len(k.arena)+1]
		ev = &k.arena[len(k.arena)-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{priority: priority, name: name, handler: handler, index: -1}
	return ev, nil
}

// Reserve pre-allocates contiguous storage for the next n NewEvent calls.
// Events previously handed out stay valid (they keep the old block alive);
// Reset does not reclaim the arena, so a reserved kernel reuses the same
// storage for every replication.
func (k *Kernel) Reserve(n int) {
	if cap(k.arena)-len(k.arena) >= n {
		return
	}
	k.arena = make([]Event, 0, n)
}

// ScheduleEventAt enqueues a reusable event (from NewEvent) at absolute
// time t. A fresh sequence number is drawn, so same-time ordering is
// identical to scheduling a newly allocated event. It returns ErrPast if t
// precedes the current time and an error if the event is still pending.
func (k *Kernel) ScheduleEventAt(ev *Event, t float64) error {
	if ev == nil || ev.handler == nil {
		return fmt.Errorf("des: schedule of nil or handlerless event")
	}
	if ev.index >= 0 {
		return fmt.Errorf("des: event %q rescheduled while pending", ev.name)
	}
	if t < k.now {
		return fmt.Errorf("%w: %g < now %g (%s)", ErrPast, t, k.now, ev.name)
	}
	k.seq++
	k.scheduled++
	ev.time = t
	ev.seq = k.seq
	k.push(ev)
	return nil
}

// ScheduleEventAfter enqueues a reusable event delay time units from now.
func (k *Kernel) ScheduleEventAfter(ev *Event, delay float64) error {
	return k.ScheduleEventAt(ev, k.now+delay)
}

// Cancel removes a pending event from the event list. Cancelling an event
// that already fired or was already cancelled is a no-op.
func (k *Kernel) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	k.remove(ev.index)
	k.cancelled++
}

// AdvanceTo moves the clock forward to t without firing anything, for
// drivers that interleave externally timed work (a cluster orchestrator's
// dispatch or migration events) between this kernel's own events. The
// clock may only move forward, and never past the next pending event —
// stepping over a scheduled occurrence would fire it in the past.
func (k *Kernel) AdvanceTo(t float64) error {
	if t < k.now {
		return fmt.Errorf("%w: advance to %g < now %g", ErrPast, t, k.now)
	}
	if next := k.NextTime(); t > next {
		return fmt.Errorf("des: advance to %g would step over the pending event at %g", t, next)
	}
	k.now = t
	return nil
}

// Step fires the next event, advancing the clock to its time. It returns
// false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.pop()
	k.now = ev.time
	k.fired++
	ev.handler()
	return true
}

// The event list is a hand-rolled binary heap ordered by (time, priority,
// seq). The ordering is a total order (sequence numbers are unique), so the
// pop sequence is independent of the heap's internal layout — rewriting the
// container/heap implementation into concrete, inlinable code changes no
// trajectory. Sifts move a hole instead of swapping pairs: one write per
// level plus a final placement, and the comparison never goes through an
// interface.

// eventLess is the (time, priority, seq) order.
func eventLess(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up to its position.
func (k *Kernel) push(ev *Event) {
	k.queue = append(k.queue, ev)
	k.siftUp(len(k.queue) - 1)
}

// pop removes and returns the earliest event, marking it not-pending.
func (k *Kernel) pop() *Event {
	q := k.queue
	head := q[0]
	head.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		k.siftDown(0)
	}
	return head
}

// remove deletes the event at heap position i, marking it not-pending.
func (k *Kernel) remove(i int) {
	q := k.queue
	q[i].index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i < n {
		q[i] = last
		last.index = i
		if !k.siftDown(i) {
			k.siftUp(i)
		}
	}
}

// siftUp moves the event at position i toward the root until its parent
// orders before it.
func (k *Kernel) siftUp(i int) {
	q := k.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// siftDown moves the event at position i toward the leaves until both
// children order after it, reporting whether it moved.
func (k *Kernel) siftDown(i int) bool {
	q := k.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(q[r], q[c]) {
			c = r
		}
		child := q[c]
		if !eventLess(child, ev) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i != start
}
