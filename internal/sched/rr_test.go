package sched

import (
	"testing"

	"vcpusim/internal/core"
)

func TestRoundRobinName(t *testing.T) {
	if got := NewRoundRobin(10).Name(); got != "RRS" {
		t.Fatalf("name = %q", got)
	}
}

func TestRoundRobinFillsAllPCPUs(t *testing.T) {
	h := newHarness(t, NewRoundRobin(10), 4, 2, 1, 1)
	h.tick()
	for p := range h.pcpus {
		if h.pcpus[p].VCPU < 0 {
			t.Fatalf("PCPU %d idle with waiting VCPUs", p)
		}
	}
}

func TestRoundRobinFairShares(t *testing.T) {
	// 4 VCPUs on 1, 2, and 3 PCPUs: every VCPU receives p/4 of the time.
	for pcpus := 1; pcpus <= 3; pcpus++ {
		h := newHarness(t, NewRoundRobin(10), pcpus, 2, 1, 1)
		h.run(4000)
		want := float64(pcpus) / 4
		for id := 0; id < 4; id++ {
			h.assertShare(id, want, 0.02)
		}
	}
}

func TestRoundRobinFullProvisioning(t *testing.T) {
	h := newHarness(t, NewRoundRobin(10), 4, 2, 1, 1)
	h.run(500)
	for id := 0; id < 4; id++ {
		h.assertShare(id, 1, 0.01)
		if !h.active(id) {
			t.Errorf("VCPU %d idle with ample PCPUs", id)
		}
	}
}

func TestRoundRobinRotationOrder(t *testing.T) {
	// 3 VCPUs, 1 PCPU, timeslice 2: grants must rotate 0,1,2,0,1,2...
	h := newHarness(t, NewRoundRobin(2), 1, 3)
	var grants []int
	for i := 0; i < 13; i++ {
		before := make([]int, 3)
		for id := range before {
			before[id] = h.vcpus[id].PCPU
		}
		h.tick()
		for id := range before {
			if before[id] < 0 && h.vcpus[id].PCPU >= 0 {
				grants = append(grants, id)
			}
		}
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if i >= len(grants) || grants[i] != want[i] {
			t.Fatalf("grant order %v, want prefix %v", grants, want)
		}
	}
}

func TestRoundRobinNoIdleNoAction(t *testing.T) {
	rr := NewRoundRobin(10)
	vcpus := []core.VCPUView{{ID: 0, Status: core.Inactive, PCPU: -1}}
	pcpus := []core.PCPUView{{ID: 0, VCPU: 5}} // occupied
	var acts core.Actions
	rr.Schedule(0, vcpus, pcpus, &acts)
	if !acts.Empty() {
		t.Fatalf("actions on a fully busy system: %+v", acts)
	}
}

func TestRoundRobinEmptySystem(t *testing.T) {
	rr := NewRoundRobin(10)
	var acts core.Actions
	rr.Schedule(0, nil, nil, &acts)
	if !acts.Empty() {
		t.Fatal("actions on an empty system")
	}
}

func TestVCPUQueueSetSemantics(t *testing.T) {
	q := newVCPUQueue()
	q.push(1)
	q.push(2)
	q.push(1) // duplicate ignored
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	if v, ok := q.pop(); !ok || v != 1 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
	q.push(3)
	q.remove(3)
	q.remove(99) // absent: no-op
	if v, ok := q.pop(); !ok || v != 2 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if s := q.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestVCPUQueueAdmitLeastServedFirst(t *testing.T) {
	q := newVCPUQueue()
	views := []core.VCPUView{
		{ID: 0, Status: core.Inactive, Runtime: 60},
		{ID: 1, Status: core.Ready, Runtime: 0},
		{ID: 2, Status: core.Inactive, Runtime: 30},
		{ID: 3, Status: core.Inactive, Runtime: 30},
	}
	q.admitInactive(views)
	got := q.order
	want := []int{2, 3, 0} // runtime ascending, ties by ID; READY skipped
	if len(got) != len(want) {
		t.Fatalf("queue %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue %v, want %v", got, want)
		}
	}
}

// TestWorkConservation: RRS and Credit are work-conserving — after every
// scheduling step, no PCPU sits idle while a VCPU waits. (The
// co-schedulers and Balance are intentionally not: gang constraints and
// static per-PCPU queues can leave PCPUs idle.)
func TestWorkConservation(t *testing.T) {
	cases := map[string]func() core.Scheduler{
		"RRS":    func() core.Scheduler { return NewRoundRobin(7) },
		"Credit": func() core.Scheduler { return NewCredit(CreditParams{Timeslice: 7}) },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, mk(), 3, 2, 3, 1)
			for i := 0; i < 600; i++ {
				h.tick()
				idle := 0
				for _, p := range h.pcpus {
					if p.VCPU < 0 {
						idle++
					}
				}
				waiting := 0
				for _, v := range h.vcpus {
					if v.PCPU < 0 {
						waiting++
					}
				}
				if idle > 0 && waiting > 0 {
					t.Fatalf("t=%d: %d idle PCPUs with %d waiting VCPUs", h.now, idle, waiting)
				}
			}
		})
	}
}
