package sched

import (
	"testing"

	"vcpusim/internal/core"
)

func TestBalanceName(t *testing.T) {
	if got := NewBalance(10).Name(); got != "Balance" {
		t.Fatalf("name = %q", got)
	}
}

func TestBalanceNeverStacksSiblings(t *testing.T) {
	// Two 2-VCPU VMs on 2 PCPUs: whenever queues are inspected, no run
	// queue may hold two siblings.
	b := NewBalance(5)
	h := newHarness(t, b, 2, 2, 2)
	for i := 0; i < 500; i++ {
		h.tick()
		for q := range b.queues {
			seen := map[int]bool{}
			for _, id := range b.queues[q] {
				vm := h.vcpus[id].VM
				if seen[vm] {
					t.Fatalf("t=%d: run queue %d stacks siblings of VM %d: %v", h.now, q, vm, b.queues[q])
				}
				seen[vm] = true
			}
		}
	}
}

func TestBalanceFairShares(t *testing.T) {
	h := newHarness(t, NewBalance(10), 2, 2, 2)
	h.run(4000)
	for id := 0; id < 4; id++ {
		h.assertShare(id, 0.5, 0.05)
	}
}

func TestBalanceUsesAllPCPUs(t *testing.T) {
	h := newHarness(t, NewBalance(10), 3, 2, 2, 2)
	h.run(300)
	for p := range h.pcpus {
		if h.pcpus[p].VCPU < 0 {
			t.Fatalf("PCPU %d idle under load", p)
		}
	}
}

func TestBalanceQueueLengths(t *testing.T) {
	b := NewBalance(5)
	h := newHarness(t, b, 1, 2)
	h.tick()
	lens := b.QueueLengths()
	if len(lens) != 1 {
		t.Fatalf("queue count = %d, want 1", len(lens))
	}
	// One VCPU runs, the sibling waits in the only queue (fallback
	// placement despite the sibling rule: no alternative queue exists).
	if lens[0] != 1 {
		t.Fatalf("waiting queue length = %d, want 1", lens[0])
	}
}

func TestBalancePrefersSiblingFreeQueue(t *testing.T) {
	b := NewBalance(5)
	// 2 PCPUs; queue 0 already holds VCPU 1 (VM 0). Its sibling VCPU 0
	// must be placed on queue 1 even though queue 0 is shorter after
	// accounting... both empty-length ties break to sibling-free.
	b.queues = [][]int{{1}, {}}
	b.queued = []bool{false, true}
	vcpus := []core.VCPUView{
		{ID: 0, VM: 0, Sibling: 0, Status: core.Inactive, PCPU: -1},
		{ID: 1, VM: 0, Sibling: 1, Status: core.Inactive, PCPU: -1},
	}
	pcpus := []core.PCPUView{{ID: 0, VCPU: 8}, {ID: 1, VCPU: 9}} // both busy
	var acts core.Actions
	b.Schedule(0, vcpus, pcpus, &acts)
	if got := b.queues[1]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("queues = %v, want the sibling alone on queue 1", b.queues)
	}
}
