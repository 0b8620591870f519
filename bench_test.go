package vcpusim_test

// Benchmarks: one per reproduced table/figure (each iteration regenerates
// the figure's full row/series set at a reduced replication budget — run
// `go run ./cmd/vcpusim experiments` for the full-budget numbers printed
// in EXPERIMENTS.md), plus engine and component micro-benchmarks.

import (
	"context"
	"testing"

	"vcpusim"
	"vcpusim/internal/experiments"
	"vcpusim/internal/sim"
)

// benchParams is the reduced budget used per benchmark iteration.
func benchParams() experiments.Params {
	p := experiments.Defaults()
	p.Horizon = 2000
	p.Sim = sim.Options{MinReps: 2, MaxReps: 2, RelWidth: 100, Parallelism: 1}
	return p
}

// BenchmarkFigure8 regenerates the paper's Figure 8 series (VCPU
// availability of 4 VCPUs under RRS/SCS/RCS across 1-4 PCPUs).
func BenchmarkFigure8(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8SAN is BenchmarkFigure8 on the SAN engine: the same
// cells, replicated through the executor the fast engine bypasses.
func BenchmarkFigure8SAN(b *testing.B) {
	p := benchParams()
	p.Engine = experiments.EngineSAN
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCells runs the Figure 8 grid on the SAN engine through one
// RunCells pool as wide as GOMAXPROCS, four replications per cell, so the
// pool's workers share cells; ./bench.sh json records it at the ambient
// GOMAXPROCS and again at 1.
func BenchmarkRunCells(b *testing.B) {
	p := benchParams()
	p.Engine = experiments.EngineSAN
	p.Sim.MinReps, p.Sim.MaxReps, p.Sim.Parallelism = 4, 4, 0
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the paper's Figure 9 series (PCPU
// utilization across the three VM sets).
func BenchmarkFigure9(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the paper's Figure 10 series (VCPU
// utilization across VM sets and sync ratios 1:5..1:2).
func BenchmarkFigure10(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure10(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables1And2 covers the paper's structural Tables 1-2: each
// iteration composes the full Virtual System SAN model (join places
// included) for the Figure 7 topology.
func BenchmarkTables1And2(b *testing.B) {
	cfg := fig8Config(4)
	for i := 0; i < b.N; i++ {
		sys, err := vcpusim.BuildModel(cfg, vcpusim.RoundRobin(cfg.Timeslice), 1)
		if err != nil {
			b.Fatal(err)
		}
		if sys.Model() == nil {
			b.Fatal("nil model")
		}
	}
}

// fig8Config mirrors the Figure 8 topology for benchmarks.
func fig8Config(pcpus int) vcpusim.SystemConfig {
	wl := vcpusim.WorkloadSpec{Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return vcpusim.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: 30,
		VMs: []vcpusim.VMConfig{
			{VCPUs: 2, Workload: wl},
			{VCPUs: 1, Workload: wl},
			{VCPUs: 1, Workload: wl},
		},
	}
}

// BenchmarkEngineFast measures one 10k-tick replication on the direct
// engine (Figure 8 topology, RRS).
func BenchmarkEngineFast(b *testing.B) {
	cfg := fig8Config(2)
	factory := vcpusim.RoundRobin(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vcpusim.Run(cfg, factory, 10000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSAN measures the same replication on the Stochastic
// Activity Network engine, quantifying the cost of the formalism.
func BenchmarkEngineSAN(b *testing.B) {
	cfg := fig8Config(2)
	factory := vcpusim.RoundRobin(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vcpusim.RunSAN(cfg, factory, 10000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulers measures a 10k-tick replication per algorithm on the
// overcommitted set-2 topology.
func BenchmarkSchedulers(b *testing.B) {
	wl := vcpusim.WorkloadSpec{Load: vcpusim.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	cfg := vcpusim.SystemConfig{
		PCPUs:     4,
		Timeslice: 30,
		VMs:       []vcpusim.VMConfig{{VCPUs: 2, Workload: wl}, {VCPUs: 3, Workload: wl}},
	}
	algos := []struct {
		name    string
		factory vcpusim.SchedulerFactory
	}{
		{"RRS", vcpusim.RoundRobin(30)},
		{"SCS", vcpusim.StrictCo(30)},
		{"RCS", vcpusim.RelaxedCo(vcpusim.RelaxedCoParams{Timeslice: 30})},
		{"Balance", vcpusim.Balance(30)},
		{"Credit", vcpusim.Credit(vcpusim.CreditParams{Timeslice: 30})},
	}
	for _, algo := range algos {
		b.Run(algo.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vcpusim.Run(cfg, algo.factory, 10000, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicate measures the full CI-controlled replication runner
// (parallel replications included).
func BenchmarkReplicate(b *testing.B) {
	cfg := fig8Config(2)
	factory := vcpusim.RoundRobin(30)
	for i := 0; i < b.N; i++ {
		_, err := vcpusim.Replicate(context.Background(), cfg, factory, 2000, vcpusim.SimOptions{
			Seed: uint64(i) + 1, MinReps: 4, MaxReps: 4, RelWidth: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
