package sched

import (
	"testing"

	"vcpusim/internal/core"
)

// benchViews builds a mid-size system state for scheduler benchmarks.
func benchViews() ([]core.VCPUView, []core.PCPUView) {
	var vcpus []core.VCPUView
	id := 0
	for vm, size := range []int{2, 3, 2, 1} {
		for k := 0; k < size; k++ {
			vcpus = append(vcpus, core.VCPUView{
				ID: id, VM: vm, Sibling: k, Status: core.Inactive, PCPU: -1,
			})
			id++
		}
	}
	pcpus := make([]core.PCPUView, 4)
	for p := range pcpus {
		pcpus[p] = core.PCPUView{ID: p, VCPU: -1}
	}
	return vcpus, pcpus
}

// benchSchedule times Schedule alone: one Actions is reused with a reset,
// as the engines do, and each iteration flips a few VCPUs between INACTIVE
// and READY so the co-schedulers leave the all-inactive first-tick path.
// The views are not updated from the decisions; the benchmark measures a
// scheduler's per-call cost, not a trajectory.
func benchSchedule(b *testing.B, s core.Scheduler) {
	b.Helper()
	vcpus, pcpus := benchViews()
	var acts core.Actions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range [...]int{i % len(vcpus), (i + 3) % len(vcpus)} {
			if vcpus[id].Status == core.Inactive {
				vcpus[id].Status = core.Ready
			} else {
				vcpus[id].Status = core.Inactive
			}
		}
		acts.Reset()
		s.Schedule(int64(i), vcpus, pcpus, &acts)
	}
}

func BenchmarkRoundRobinSchedule(b *testing.B) { benchSchedule(b, NewRoundRobin(30)) }

func BenchmarkStrictCoSchedule(b *testing.B) { benchSchedule(b, NewStrictCo(30)) }

func BenchmarkRelaxedCoSchedule(b *testing.B) {
	benchSchedule(b, NewRelaxedCo(RelaxedCoParams{Timeslice: 30}))
}

func BenchmarkBalanceSchedule(b *testing.B) { benchSchedule(b, NewBalance(30)) }

func BenchmarkCreditSchedule(b *testing.B) {
	benchSchedule(b, NewCredit(CreditParams{Timeslice: 30}))
}
