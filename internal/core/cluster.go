package core

import "fmt"

// Cluster-facing admission surface: the hooks internal/cluster uses to
// treat one System as a host shard in a multi-host simulation. A host
// provisions a fixed set of VM slots at build time; the orchestrator
// then parks and unparks them as VMs dispatch, migrate, and depart. The
// split is deliberate: admission (unpark + re-enable the workload
// generator) touches no marking at all and so needs no model event,
// while eviction mutates PCPU assignments and must run inside
// Instance.Exec at a stable marking.

// VMVCPUs returns the VCPU count of VM slot vm.
func (s *System) VMVCPUs(vm int) int { return len(s.vms[vm].vcpus) }

// SetVMParked marks VM slot vm as parked (not admitted) or admitted in
// the scheduler's view. Parking is view-level only — the slot marking is
// untouched — so flipping it between events perturbs nothing until the
// next scheduler tick reads the views. The flag persists across Reseed,
// exactly like SetActivityEnabled; the orchestrator re-establishes the
// admission state of every slot at the start of each replication.
func (s *System) SetVMParked(vm int, parked bool) error {
	if vm < 0 || vm >= len(s.vms) {
		return fmt.Errorf("core: no VM slot %d (have %d)", vm, len(s.vms))
	}
	if s.parked == nil {
		if !parked {
			return nil
		}
		s.parked = make([]bool, len(s.vms))
	}
	s.parked[vm] = parked
	return nil
}

// GenerateActivityName returns the fully qualified name of VM slot vm's
// workload-generator activity, for Instance.SetActivityEnabled: a parked
// slot's generator is disabled so no workload materializes while the VM
// is not admitted (and a draining VM's generator is disabled so its
// in-flight work runs dry before migration).
func (s *System) GenerateActivityName(vm int) string {
	return s.cfg.VMName(vm) + ".Workload_Generator/Generate"
}

// VMDrained reports whether VM slot vm holds no work anywhere: no
// pending workload, no raised barrier, and no VCPU with remaining load.
// A drained VM can be evicted without losing work — the migration
// protocol disables its generator, polls VMDrained, and only then calls
// EvictVM. Reads are Peek-only, so polling never perturbs the model.
func (s *System) VMDrained(vm int) bool {
	ref := s.vms[vm]
	if ref.pending.Peek().Present || ref.blocked.Tokens() > 0 {
		return false
	}
	for _, vc := range ref.vcpus {
		if vc.slot.Peek().RemainingLoad > 0 {
			return false
		}
	}
	return true
}

// EvictVM revokes every PCPU held by VM slot vm's VCPUs (Schedule_Out
// for each, exactly as a scheduler preemption would) and returns how
// many were evicted. It mutates the marking and therefore MUST run
// inside Instance.Exec at a stable marking — the raised Schedule_Out
// notifications are consumed by the instantaneous Schedule_Out_evt
// activities during the stabilization Exec performs. The capacity-1
// notification places are guaranteed empty at a stable marking, so the
// eviction can never overflow them.
func (s *System) EvictVM(vm int) int {
	evicted := 0
	for _, vc := range s.vms[vm].vcpus {
		if vc.host.Peek().PCPU < 0 {
			continue
		}
		h := vc.host.Get()
		(*s.pcpus.Get())[h.PCPU] = -1
		h.PCPU = -1
		h.Timeslice = 0
		vc.schedOut.Add(1)
		evicted++
	}
	return evicted
}

// AssignedPCPUs returns how many PCPUs currently host a VCPU (Peek
// only). The orchestrator's migration thresholds compare it against
// NumPCPUs as the host's observed load.
func (s *System) AssignedPCPUs() int {
	n := 0
	for _, v := range *s.pcpus.Peek() {
		if v >= 0 {
			n++
		}
	}
	return n
}
