package cluster

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// scanLoad recomputes host h's fleet-view entry from its slots, the way a
// full snapshot would.
func scanLoad(h *hostShard) HostLoad {
	l := HostLoad{ID: h.id, PCPUs: h.sys.NumPCPUs(), MaxFree: h.widestParked()}
	for _, s := range h.slots {
		if s.phase != slotParked {
			l.AdmittedVCPUs += s.vcpus
		}
	}
	return l
}

// checkFleetView fails unless every host's maintained entry, the count
// of hosts per MaxFree and the draining list equal a fresh scan of the
// slots.
func checkFleetView(t *testing.T, o *Orchestrator, when string) {
	t.Helper()
	free := make([]int, len(o.freeHosts))
	var draining []slotRef
	for _, h := range o.hosts {
		want := scanLoad(h)
		if got := o.loads[h.id]; got != want {
			t.Fatalf("%s: host %s fleet view %+v, scan gives %+v", when, h.name, got, want)
		}
		free[want.MaxFree]++
		for i, s := range h.slots {
			if s.phase == slotDraining {
				draining = append(draining, slotRef{host: h.id, slot: i})
			}
		}
	}
	if !slices.Equal(o.freeHosts, free) {
		t.Fatalf("%s: hosts per MaxFree %v, scan gives %v", when, o.freeHosts, free)
	}
	if !slices.Equal(o.draining, draining) {
		t.Fatalf("%s: draining list %v, scan gives %v", when, o.draining, draining)
	}
}

// checkAssigned fails unless every host's stored assigned-PCPU count
// equals its system's.
func checkAssigned(t *testing.T, o *Orchestrator, when string) {
	t.Helper()
	for _, h := range o.hosts {
		if got, want := o.assigned[h.id], h.sys.AssignedPCPUs(); got != want {
			t.Fatalf("%s: host %s stored %d assigned PCPUs, its system has %d", when, h.name, got, want)
		}
	}
}

// TestFleetViewMatchesScan steps the mixed fleet of the policies golden
// one cluster event at a time, under every policy and over two
// replications on one orchestrator, and checks after arming and after
// every event that the maintained fleet view equals a scan of the slots.
// Before and after every migration check, each host's stored
// assigned-PCPU count must equal its system's, the hosts the check
// evicts from included.
func TestFleetViewMatchesScan(t *testing.T) {
	ctx := context.Background()
	for _, policy := range PlacementPolicies() {
		o, err := New(policiesTopology(t, policy))
		if err != nil {
			t.Fatal(err)
		}
		defer o.dismiss()
		checkFleetView(t, o, policy+" new")
		evicted := 0
		for _, seed := range []uint64{1, 9} {
			if err := o.arm(seed); err != nil {
				t.Fatal(err)
			}
			checkFleetView(t, o, policy+" armed")
			handled := 0
			for len(o.events) > 0 && o.events[0].time < o.topo.Horizon {
				if err := o.advance(ctx, o.events[0].time, 1); err != nil {
					t.Fatal(err)
				}
				ev := o.events.pop()
				draining := slices.Clone(o.draining)
				if ev.kind == evCheck {
					checkAssigned(t, o, policy+" check")
				}
				if err := o.handle(ev); err != nil {
					t.Fatal(err)
				}
				handled++
				checkFleetView(t, o, policy)
				if ev.kind == evCheck {
					checkAssigned(t, o, policy+" after check")
					for _, d := range draining {
						if o.hosts[d.host].slots[d.slot].phase == slotParked {
							evicted++
						}
					}
				}
			}
			if handled == 0 {
				t.Fatalf("%s seed %d: no cluster events handled", policy, seed)
			}
			if _, err := o.collect(); err != nil {
				t.Fatal(err)
			}
		}
		if evicted == 0 {
			t.Fatalf("%s: no check evicted a drained VM; the fleet no longer exercises phase 1", policy)
		}
	}
}

// TestFleetScansAllocateNothing pins the fleet scans allocation-free on
// an armed 250-host orchestrator: one migration check (reading every
// host's utilization, ranking the targets, starting drains) and one
// placement each allocate nothing.
func TestFleetScansAllocateNothing(t *testing.T) {
	// The benchmark fleet's hosts keep both PCPUs busy, so half of them
	// become idle hosts with two free 2-VCPU slots: the targets the other
	// half's checks drain toward.
	topo := benchTopology(250, 50)
	idle := topo.Hosts[0]
	idle.Name, idle.Count = "idle", 125
	idle.Slots = []Slot{{VM: idle.Slots[0].VM, Count: 2}}
	topo.Hosts[0].Count = 125
	topo.Hosts = append(topo.Hosts, idle)
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer o.dismiss()
	if err := o.arm(1); err != nil {
		t.Fatal(err)
	}
	now := o.topo.Migration.CheckEvery
	if err := o.advance(context.Background(), now, 1); err != nil {
		t.Fatal(err)
	}
	events := len(o.events)
	drains := 0
	check := func() {
		// Drop what the check pushed (any prefix of a heap is a heap) and
		// undo its drains so every run starts the same ones again.
		if err := o.migrationCheck(now); err != nil {
			t.Fatal(err)
		}
		o.events = o.events[:events]
		o.draining = o.draining[:0]
		for _, h := range o.hosts {
			for i := range h.slots {
				switch h.slots[i].phase {
				case slotDraining:
					drains++
					if err := h.inst.SetEnabled(h.gen[i], true); err != nil {
						t.Fatal(err)
					}
					h.genEnabled[i] = true
					o.setPhase(h, i, slotAdmitted)
				case slotReserved:
					o.setPhase(h, i, slotParked)
				}
			}
		}
	}
	check()
	if drains == 0 || len(o.rank) == 0 {
		t.Fatalf("check started %d drains over %d ranked targets; the fixture no longer migrates", drains, len(o.rank))
	}
	if a := testing.AllocsPerRun(20, check); a != 0 {
		t.Errorf("migrationCheck: %v allocs/op, want 0", a)
	}
	placed := 0
	place := func() {
		ok, err := o.place(1, now, now)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			placed++
		}
	}
	if a := testing.AllocsPerRun(100, place); a != 0 {
		t.Errorf("place: %v allocs/op, want 0", a)
	}
	if placed != 101 {
		t.Errorf("%d of 101 placements succeeded", placed)
	}
}

// TestAdmitErrorEndsReplication swaps each parked slot's generator
// activity, after arming, for one resolved in the next host's program,
// which the slot's instance rejects, and checks that both admission
// paths, an arrival's placement and a migration's re-admission, end the
// replication with the same wrapped model error instead of queueing the
// VM.
func TestAdmitErrorEndsReplication(t *testing.T) {
	for name, topo := range map[string]*Topology{
		"placement": multiHostTopology(t, 3),
		"migration": migrationTopology(t),
	} {
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		defer o.dismiss()
		if err := o.arm(3); err != nil {
			t.Fatal(err)
		}
		for _, h := range o.hosts {
			for i := range h.slots {
				if !h.genEnabled[i] {
					h.gen[i] = o.hosts[(h.id+1)%len(o.hosts)].gen[0]
				}
			}
		}
		err = o.run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "admitting slot") || !strings.Contains(err.Error(), "is not in the program") {
			t.Errorf("%s: run = %v, want the admission's model error", name, err)
		}
	}
}
