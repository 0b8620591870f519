package des

// Test drivers: the SAN executive schedules reusable events and steps the
// kernel itself (NextTime, Step), so these exist for the kernel's own
// tests only.

// Schedule enqueues handler to run at absolute time t with the given
// priority (lower fires first among same-time events). The returned Event
// can be cancelled. It returns ErrPast if t precedes the current time.
// It goes through ScheduleEventAt, so it too fills a stale root's slot.
func (k *Kernel) Schedule(t float64, priority int, name string, handler Handler) (*Event, error) {
	ev := &Event{priority: priority, handler: handler, name: name, index: -1}
	if err := k.ScheduleEventAt(ev, t); err != nil {
		return nil, err
	}
	return ev, nil
}

// ScheduleAfter enqueues handler to run delay time units from now.
func (k *Kernel) ScheduleAfter(delay float64, priority int, name string, handler Handler) (*Event, error) {
	return k.Schedule(k.now+delay, priority, name, handler)
}

// halted records the kernels whose handlers called Halt during RunUntil.
// The kernel's tests run serially, so a package-level set serves.
var halted = map[*Kernel]bool{}

// Halt stops RunUntil after the current event completes.
func (k *Kernel) Halt() { halted[k] = true }

// RunUntil fires events until the clock would pass horizon, the event list
// empties, or Halt is called. Events scheduled exactly at the horizon fire.
// Afterwards the clock is set to the horizon (if it was reached).
func (k *Kernel) RunUntil(horizon float64) {
	delete(halted, k)
	for !halted[k] {
		if k.NextTime() > horizon {
			break // also the empty-queue exit: NextTime is +Inf
		}
		if !k.Step() {
			break
		}
	}
	delete(halted, k)
	if k.now < horizon {
		k.now = horizon
	}
}
