package des

import "fmt"

// Test drivers: the SAN executive schedules reusable events and steps the
// kernel itself (NextTime, Step), so these exist for the kernel's own
// tests only.

// Schedule enqueues handler to run at absolute time t with the given
// priority (lower fires first among same-time events). The returned Event
// can be cancelled. It returns ErrPast if t precedes the current time.
func (k *Kernel) Schedule(t float64, priority int, name string, handler Handler) (*Event, error) {
	if t < k.now {
		return nil, fmt.Errorf("%w: %g < now %g (%s)", ErrPast, t, k.now, name)
	}
	if handler == nil {
		return nil, fmt.Errorf("des: nil handler for event %q", name)
	}
	k.seq++
	k.scheduled++
	ev := &Event{time: t, priority: priority, seq: k.seq, handler: handler, name: name}
	k.push(ev)
	return ev, nil
}

// ScheduleAfter enqueues handler to run delay time units from now.
func (k *Kernel) ScheduleAfter(delay float64, priority int, name string, handler Handler) (*Event, error) {
	return k.Schedule(k.now+delay, priority, name, handler)
}

// Halt stops RunUntil after the current event completes.
func (k *Kernel) Halt() { k.halted = true }

// RunUntil fires events until the clock would pass horizon, the event list
// empties, or Halt is called. Events scheduled exactly at the horizon fire.
// Afterwards the clock is set to the horizon (if it was reached).
func (k *Kernel) RunUntil(horizon float64) {
	k.halted = false
	for !k.halted {
		if k.NextTime() > horizon {
			break // also the empty-queue exit: NextTime is +Inf
		}
		if !k.Step() {
			break
		}
	}
	if k.now < horizon {
		k.now = horizon
	}
}
