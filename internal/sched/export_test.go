package sched

// QueueLengths returns the current run-queue lengths.
func (b *Balance) QueueLengths() []int {
	lens := make([]int, len(b.queues))
	for i, q := range b.queues {
		lens[i] = len(q)
	}
	return lens
}

// Credits returns the current credit balance of a VCPU.
func (c *Credit) Credits(id int) float64 {
	if c.credits == nil || id < 0 || id >= len(c.credits) {
		return 0
	}
	return c.credits[id]
}

// Skew returns the current cumulative skew of a VCPU.
func (r *RelaxedCo) Skew(id int) int64 {
	if id < 0 || id >= len(r.skew) {
		return 0
	}
	return r.skew[id]
}

// pop removes and returns the queue's head.
func (q *vcpuQueue) pop() (int, bool) {
	if len(q.order) == 0 {
		return 0, false
	}
	id := q.order[0]
	q.removeAt(0)
	return id, true
}

// len returns the number of queued VCPUs.
func (q *vcpuQueue) len() int { return len(q.order) }
