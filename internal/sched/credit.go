package sched

import (
	"cmp"
	"slices"

	"vcpusim/internal/core"
)

// Credit is a proportional-share scheduler in the spirit of Xen's credit
// scheduler (Cherkasova et al., the comparison study the paper's related
// work cites): each VM has a weight; credits are replenished to VCPUs in
// proportion to their VM's weight every accounting period and burned while
// running; idle PCPUs go to the waiting VCPU with the most credit.
//
// It is an extension beyond the paper's three evaluated algorithms.
type Credit struct {
	timeslice int64
	period    int64
	weights   map[int]float64 // VM index -> weight (default 1)

	credits  []float64
	lastFill int64
	gangs    core.Gangs

	// Per-call scratch, reused so a tick does not allocate.
	waiting []candidate
	idle    []int
}

// candidate is a VCPU waiting for a PCPU, keyed for the richest-first
// grant order.
type candidate struct {
	credit float64
	id     int
}

var _ core.Scheduler = (*Credit)(nil)

// CreditParams configures the Credit scheduler.
type CreditParams struct {
	// Timeslice is the per-assignment timeslice in ticks.
	Timeslice int64
	// Period is the accounting period between credit refills; zero
	// selects 3x the timeslice.
	Period int64
	// Weights maps VM index to its share weight; missing VMs get 1.
	Weights map[int]float64
}

// NewCredit returns a proportional-share scheduler.
func NewCredit(p CreditParams) *Credit {
	if p.Period <= 0 {
		p.Period = 3 * p.Timeslice
	}
	return &Credit{timeslice: p.Timeslice, period: p.Period, weights: p.Weights}
}

// Name implements core.Scheduler.
func (c *Credit) Name() string { return "Credit" }

// Schedule implements core.Scheduler.
func (c *Credit) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if c.gangs.Derive(vcpus) {
		c.credits = make([]float64, len(vcpus))
		c.lastFill = now
	}
	// Burn one credit per running tick.
	for i := range vcpus {
		if v := &vcpus[i]; v.Status.Active() {
			c.credits[v.ID]--
		}
	}
	// Refill once per period, in proportion to VM weight split across the
	// VM's VCPUs; cap accumulation at one period's worth to bound bursts.
	if now-c.lastFill >= c.period {
		c.lastFill = now
		totalWeight := 0.0
		for _, vm := range c.gangs.VMs() {
			totalWeight += c.weight(vm)
		}
		if totalWeight > 0 {
			capacity := float64(c.period) * float64(len(pcpus))
			for i, vm := range c.gangs.VMs() {
				gang := c.gangs.Members(i)
				share := capacity * c.weight(vm) / totalWeight / float64(len(gang))
				for _, id := range gang {
					c.credits[id] += share
					if c.credits[id] > capacity {
						c.credits[id] = capacity
					}
				}
			}
		}
	}
	// Grant idle PCPUs to the richest waiting VCPUs. IDs are unique, so
	// the order is total and any correct sort yields it.
	c.waiting = c.waiting[:0]
	for i := range vcpus {
		if v := &vcpus[i]; v.Status == core.Inactive {
			c.waiting = append(c.waiting, candidate{credit: c.credits[v.ID], id: v.ID})
		}
	}
	slices.SortFunc(c.waiting, func(a, b candidate) int {
		if a.credit != b.credit {
			return -cmp.Compare(a.credit, b.credit)
		}
		return cmp.Compare(a.id, b.id)
	})
	c.idle = core.AppendIdlePCPUs(c.idle[:0], pcpus)
	for i, p := range c.idle {
		if i >= len(c.waiting) {
			break
		}
		acts.Assign(c.waiting[i].id, p, c.timeslice)
	}
}

func (c *Credit) weight(vm int) float64 {
	if w, ok := c.weights[vm]; ok && w > 0 {
		return w
	}
	return 1
}
