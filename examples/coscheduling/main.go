// Co-scheduling on an overcommitted host: the paper's motivating scenario.
// A 3-VCPU VM with heavy barrier synchronization shares four physical
// cores with a 2-VCPU VM, so one VCPU is always descheduled. Under plain
// Round-Robin a preempted VCPU regularly holds up its siblings at a
// barrier (the synchronization-latency problem of the paper's §II.B); the
// co-schedulers start and stop siblings together and avoid most of it.
//
// The example also prints a PCPU-occupancy Gantt chart per algorithm,
// making the gang pattern of SCS and the fragmentation it causes visible.
package main

import (
	"fmt"
	"log"

	"vcpusim"
)

func main() {
	cfg := vcpusim.SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs: []vcpusim.VMConfig{
			{Name: "app", VCPUs: 2, Workload: vcpusim.WorkloadSpec{
				Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 3}},
			{Name: "mpi", VCPUs: 3, Workload: vcpusim.WorkloadSpec{
				Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 3}},
		},
	}
	const horizon = 20000

	algorithms := []struct {
		name    string
		factory vcpusim.SchedulerFactory
	}{
		{"Round-Robin (RRS)", vcpusim.RoundRobin(cfg.Timeslice)},
		{"Strict Co-Scheduling (SCS)", vcpusim.StrictCo(cfg.Timeslice)},
		{"Relaxed Co-Scheduling (RCS)", vcpusim.RelaxedCo(vcpusim.RelaxedCoParams{Timeslice: cfg.Timeslice})},
	}

	fmt.Printf("%s, horizon %d ticks\n\n", cfg, horizon)
	for _, algo := range algorithms {
		metrics, rec, err := vcpusim.RunTraced(cfg, algo.factory, horizon, 7)
		if err != nil {
			log.Fatal(err)
		}
		avail := metrics[vcpusim.AvailabilityAvgMetric]
		busy := metrics[vcpusim.VCPUUtilizationAvgMetric]
		fmt.Printf("%s\n", algo.name)
		fmt.Printf("  VCPU availability (scheduled time):       %5.1f%%\n", 100*avail)
		fmt.Printf("  VCPU utilization (processing, total):     %5.1f%%\n", 100*busy)
		if avail > 0 {
			fmt.Printf("  VCPU utilization of scheduled time:       %5.1f%%  <- sync latency shows here\n", 100*busy/avail)
		}
		fmt.Printf("  PCPU utilization:                          %5.1f%%\n", 100*metrics[vcpusim.PCPUUtilizationAvgMetric])
		fmt.Printf("  time barrier-blocked:                      %5.1f%%\n", 100*metrics[vcpusim.BlockedFractionMetric])
		fmt.Printf("  first 3000 ticks (0-1: app VCPUs, 2-4: mpi VCPUs, .: idle):\n")
		fmt.Print(indent(rec.Gantt(3000, 30, 100)))
		fmt.Println()
	}
}

// indent prefixes each line with four spaces.
func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "    " + s[start:i+1]
			start = i + 1
		}
	}
	return out
}
