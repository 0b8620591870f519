package sched

import (
	"fmt"
	"sort"
	"strings"

	"vcpusim/internal/core"
)

// Hybrid implements the hybrid scheduling framework of Weng et al. (VEE
// 2009), which the paper's related-work section discusses: VMs marked
// *concurrent* (parallel workloads that suffer from synchronization
// latency) are gang-scheduled with strict co-start/co-stop, while the
// remaining VMs' VCPUs are scheduled individually, round-robin, filling
// the PCPUs the gangs leave free. This captures the practical middle
// ground between the paper's SCS (all VMs gang-scheduled, heavy
// fragmentation) and RRS (no co-scheduling at all).
type Hybrid struct {
	timeslice  int64
	concurrent map[int]bool
	name       string
	next       int // round-robin pointer over schedulable entities

	gangs    core.Gangs
	entities []entity // derived with gangs, VM order
	idle     []int    // per-call idle-PCPU scratch
}

var _ core.Scheduler = (*Hybrid)(nil)

// HybridParams configures the hybrid scheduler.
type HybridParams struct {
	// Timeslice is the per-assignment timeslice in ticks.
	Timeslice int64
	// ConcurrentVMs lists the VM indices to gang-schedule.
	ConcurrentVMs []int
}

// NewHybrid returns a hybrid scheduler.
func NewHybrid(p HybridParams) *Hybrid {
	conc := make(map[int]bool, len(p.ConcurrentVMs))
	var ids []string
	for _, vm := range p.ConcurrentVMs {
		if !conc[vm] {
			ids = append(ids, fmt.Sprintf("%d", vm))
		}
		conc[vm] = true
	}
	sort.Strings(ids)
	name := "Hybrid"
	if len(ids) > 0 {
		name = "Hybrid(co:" + strings.Join(ids, ",") + ")"
	}
	return &Hybrid{timeslice: p.Timeslice, concurrent: conc, name: name}
}

// Name implements core.Scheduler.
func (h *Hybrid) Name() string { return h.name }

// entity is one schedulable unit: a whole gang or a single VCPU.
type entity struct {
	vcpus []int
}

// Schedule implements core.Scheduler.
func (h *Hybrid) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	if h.gangs.Derive(vcpus) {
		h.entities = h.entities[:0]
		for i, vm := range h.gangs.VMs() {
			gang := h.gangs.Members(i)
			if h.concurrent[vm] {
				h.entities = append(h.entities, entity{vcpus: gang})
				continue
			}
			for k := range gang {
				h.entities = append(h.entities, entity{vcpus: gang[k : k+1]})
			}
		}
	}
	entities := h.entities
	if len(entities) == 0 {
		return
	}
	h.next %= len(entities)

	h.idle = core.AppendIdlePCPUs(h.idle[:0], pcpus)
	idle := h.idle
	scheduledFirst := -1
	for i := 0; i < len(entities) && len(idle) > 0; i++ {
		pos := (h.next + i) % len(entities)
		e := entities[pos]
		if len(e.vcpus) > len(idle) || !allInactive(e.vcpus, vcpus) {
			continue
		}
		for j, id := range e.vcpus {
			acts.Assign(id, idle[j], h.timeslice)
		}
		idle = idle[len(e.vcpus):]
		if scheduledFirst < 0 {
			scheduledFirst = pos
		}
	}
	if scheduledFirst >= 0 {
		h.next = (scheduledFirst + 1) % len(entities)
	}
}
