package core

import (
	"reflect"
	"testing"
)

func TestSiblingsOf(t *testing.T) {
	vcpus := []VCPUView{
		{ID: 0, VM: 0, Sibling: 0},
		{ID: 1, VM: 0, Sibling: 1},
		{ID: 2, VM: 1, Sibling: 0},
		{ID: 3, VM: 2, Sibling: 0},
	}
	got := SiblingsOf(vcpus)
	want := map[int][]int{0: {0, 1}, 1: {2}, 2: {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SiblingsOf = %v, want %v", got, want)
	}
}

func TestSiblingsOfOrdersBySibling(t *testing.T) {
	// Views indexed by ID but siblings defined out of order.
	vcpus := []VCPUView{
		{ID: 0, VM: 0, Sibling: 2},
		{ID: 1, VM: 0, Sibling: 0},
		{ID: 2, VM: 0, Sibling: 1},
	}
	got := SiblingsOf(vcpus)[0]
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gang order = %v, want %v", got, want)
	}
}

func TestIdlePCPUs(t *testing.T) {
	pcpus := []PCPUView{
		{ID: 0, VCPU: 3},
		{ID: 1, VCPU: -1},
		{ID: 2, VCPU: -1},
	}
	if got := AppendIdlePCPUs(nil, pcpus); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("AppendIdlePCPUs = %v, want [1 2]", got)
	}
	if AppendIdlePCPUs(nil, nil) != nil {
		t.Fatal("AppendIdlePCPUs(nil, nil) should be nil")
	}
	if !pcpus[1].Idle() || pcpus[0].Idle() {
		t.Fatal("Idle() wrong")
	}
}

func TestActions(t *testing.T) {
	var a Actions
	if !a.Empty() {
		t.Fatal("fresh Actions not empty")
	}
	a.Assign(1, 2, 30)
	a.Preempt(4)
	if a.Empty() {
		t.Fatal("Actions with decisions reported empty")
	}
	assigns := a.Assigns()
	if len(assigns) != 1 || assigns[0] != (Assign{VCPU: 1, PCPU: 2, Timeslice: 30}) {
		t.Fatalf("Assigns = %v", assigns)
	}
	preempts := a.Preempts()
	if len(preempts) != 1 || preempts[0] != 4 {
		t.Fatalf("Preempts = %v", preempts)
	}
	// The returned slices are copies.
	assigns[0].VCPU = 99
	if a.Assigns()[0].VCPU != 1 {
		t.Fatal("Assigns returned internal slice")
	}
}

func TestGangs(t *testing.T) {
	// VM ids out of order and with a gap; siblings out of ID order.
	vcpus := []VCPUView{
		{ID: 0, VM: 4, Sibling: 1},
		{ID: 1, VM: 1, Sibling: 0},
		{ID: 2, VM: 4, Sibling: 0},
	}
	var g Gangs
	if !g.Derive(vcpus) {
		t.Fatal("first Derive did not build")
	}
	if got := g.VMs(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("VMs = %v, want [1 4]", got)
	}
	if g.Len() != 2 || g.Pos(4) != 1 || g.Pos(1) != 0 {
		t.Fatalf("Len %d, Pos(1) %d, Pos(4) %d", g.Len(), g.Pos(1), g.Pos(4))
	}
	if got := g.Members(g.Pos(4)); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("VM 4 members = %v, want [2 0] (sibling order)", got)
	}
	// Statuses change every tick; the topology is kept while the view
	// length holds and rebuilt when it changes.
	vcpus[0].Status = Busy
	if g.Derive(vcpus) {
		t.Fatal("Derive rebuilt for a same-length view")
	}
	if !g.Derive(vcpus[:2]) || g.Len() != 2 || len(g.Members(g.Pos(4))) != 1 {
		t.Fatal("Derive did not rebuild for a shorter view")
	}
}

func TestActionsRecordedAndReset(t *testing.T) {
	var a Actions
	a.Assign(1, 2, 30)
	a.Preempt(4)
	assigns, preempts := a.Recorded()
	if len(assigns) != 1 || assigns[0] != (Assign{VCPU: 1, PCPU: 2, Timeslice: 30}) || len(preempts) != 1 || preempts[0] != 4 {
		t.Fatalf("Recorded = %v, %v", assigns, preempts)
	}
	a.Reset()
	if !a.Empty() {
		t.Fatal("Actions not empty after Reset")
	}
	// Reset keeps capacity: re-recording the same decisions allocates
	// nothing.
	if n := testing.AllocsPerRun(100, func() {
		a.Reset()
		a.Assign(1, 2, 30)
		a.Preempt(4)
	}); n != 0 {
		t.Fatalf("re-recording after Reset allocated %.1f times", n)
	}
}
