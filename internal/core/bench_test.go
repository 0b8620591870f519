package core_test

import (
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

// benchFig8Config is the Figure 8 topology (3 VMs, 2+1+1 VCPUs) used by the
// engine microbenchmarks.
func benchFig8Config(pcpus int) core.SystemConfig {
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return core.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 2, Workload: wl},
			{VCPUs: 1, Workload: wl},
			{VCPUs: 1, Workload: wl},
		},
	}
}

// BenchmarkRunnerFig8 measures the SAN executor on one 10k-tick Figure 8
// replication (RRS, 2 PCPUs): model build + event loop, reporting kernel
// events and activity firings per second alongside allocations.
func BenchmarkRunnerFig8(b *testing.B) {
	cfg := benchFig8Config(2)
	const horizon = 10000
	b.ReportAllocs()
	var events, firings uint64
	for i := 0; i < b.N; i++ {
		src := rng.New(uint64(i) + 1)
		sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), src)
		if err != nil {
			b.Fatal(err)
		}
		r, err := san.NewRunner(sys.Model(), src.Uint64())
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(horizon)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		firings += res.Firings
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
		b.ReportMetric(float64(firings)/sec, "firings/s")
	}
}

// BenchmarkRunnerSpinlock measures the executor on the spinlock
// (lock-holder-preemption) topology, whose dispatch/unblock predicates read
// every sibling VCPU slot — the worst case for enabling reconsideration.
func BenchmarkRunnerSpinlock(b *testing.B) {
	wl := workload.Spec{
		Load:       rng.Uniform{Low: 1, High: 10},
		SyncEveryN: 2,
		SyncKind:   workload.SyncSpinlock,
	}
	cfg := core.SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{VCPUs: 3, Workload: wl},
			{VCPUs: 3, Workload: wl},
		},
	}
	const horizon = 10000
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		src := rng.New(uint64(i) + 1)
		sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), src)
		if err != nil {
			b.Fatal(err)
		}
		r, err := san.NewRunner(sys.Model(), src.Uint64())
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(horizon)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
	}
}

// BenchmarkReplicationSetupFresh measures the per-replication setup cost
// of the fresh path — build the system, compile the program, allocate an
// instance, reset — which is the bill every replication paid before the
// compile-once executive.
func BenchmarkReplicationSetupFresh(b *testing.B) {
	cfg := benchFig8Config(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := rng.New(uint64(i) + 1)
		sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := san.Compile(sys.Model())
		if err != nil {
			b.Fatal(err)
		}
		inst, err := prog.NewInstance()
		if err != nil {
			b.Fatal(err)
		}
		inst.Reset(src.Uint64())
	}
}

// BenchmarkReplicationSetupPooled measures the per-replication setup cost
// of the pooled path — reseed the workload streams, swap in a fresh
// scheduler, reset the instance — with the build and compile amortized
// away.
func BenchmarkReplicationSetupPooled(b *testing.B) {
	cfg := benchFig8Config(2)
	src := rng.New(1)
	sys, err := core.BuildSystem(cfg, sched.NewRoundRobin(30), src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := san.Compile(sys.Model())
	if err != nil {
		b.Fatal(err)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i) + 1)
		if err := sys.Reseed(sched.NewRoundRobin(30), src); err != nil {
			b.Fatal(err)
		}
		inst.Reset(src.Uint64())
	}
}
