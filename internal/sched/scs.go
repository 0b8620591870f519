package sched

import (
	"vcpusim/internal/core"
)

// StrictCo is the strict co-scheduling algorithm (the paper's SCS,
// VMware ESX 2.x style gang scheduling): a VM is scheduled only when enough
// idle PCPUs exist to co-start all of its VCPUs simultaneously, and all
// siblings receive the same timeslice so they co-stop together. VMs are
// served round-robin, with smaller gangs backfilled into leftover PCPUs —
// still strictly all-or-nothing per VM.
//
// A VM with more VCPUs than physical cores can never gather enough
// resources and is never scheduled (the fragmentation pathology of
// Figure 8's one-PCPU setup).
type StrictCo struct {
	timeslice int64
	next      int // round-robin pointer over VM indices
	gangs     core.Gangs
	idle      []int // per-call idle-PCPU scratch
}

var _ core.Scheduler = (*StrictCo)(nil)

// NewStrictCo returns an SCS scheduler granting the given gang timeslice.
func NewStrictCo(timeslice int64) *StrictCo {
	return &StrictCo{timeslice: timeslice}
}

// Name implements core.Scheduler.
func (s *StrictCo) Name() string { return "SCS" }

// Schedule implements core.Scheduler.
func (s *StrictCo) Schedule(_ int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	s.idle = core.AppendIdlePCPUs(s.idle[:0], pcpus)
	idle := s.idle
	if len(idle) == 0 {
		return
	}
	s.gangs.Derive(vcpus)
	n := s.gangs.Len()
	if n == 0 {
		return
	}
	s.next %= n

	scheduledFirst := -1
	for i := 0; i < n && len(idle) > 0; i++ {
		pos := (s.next + i) % n
		gang := s.gangs.Members(pos)
		if len(gang) > len(idle) || !allInactive(gang, vcpus) {
			continue
		}
		for j, id := range gang {
			acts.Assign(id, idle[j], s.timeslice)
		}
		idle = idle[len(gang):]
		if scheduledFirst < 0 {
			scheduledFirst = pos
		}
	}
	if scheduledFirst >= 0 {
		s.next = (scheduledFirst + 1) % n
	}
}

// allInactive reports whether every listed VCPU is INACTIVE.
func allInactive(ids []int, vcpus []core.VCPUView) bool {
	for _, id := range ids {
		if vcpus[id].Status != core.Inactive {
			return false
		}
	}
	return true
}
