package san

import (
	"fmt"
	"testing"

	"vcpusim/internal/rng"
)

// buildTandem constructs an open tandem queueing network with n stations:
// a Poisson source feeding a chain of exponential servers, every arc
// documented so the runner's incidence index covers the whole model. The
// model stresses the executor's refresh path: each completion changes the
// marking of at most two queues, so only the two adjacent servers need
// reconsideration — a full scan over all n timed activities is pure waste.
func buildTandem(n int) *Model {
	m := NewModel("tandem")
	s := m.Sub("net")
	queues := make([]*Place, n)
	for i := range queues {
		queues[i] = s.Place(fmt.Sprintf("q%d", i), 0)
	}
	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: 0.8})
	arrive.OutputArc(queues[0], 1)
	for i := 0; i < n; i++ {
		serve := s.TimedActivity(fmt.Sprintf("serve%d", i), rng.Exponential{Rate: 1})
		serve.InputArc(queues[i], 1)
		if i+1 < n {
			serve.OutputArc(queues[i+1], 1)
		}
	}
	m.AddRateReward("L0", func() float64 { return float64(queues[0].Tokens()) }, queues[0].Name())
	return m
}

// BenchmarkRunnerTandem measures raw executor throughput on tandem
// networks of growing width. Per-event cost should stay flat as stations
// are added once refresh is incidence-driven; under a full-scan refresh it
// grows linearly with the station count.
func BenchmarkRunnerTandem(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			const horizon = 2000
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				m := buildTandem(n)
				r, err := NewRunner(m, uint64(i)+1)
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
		})
	}
}

// BenchmarkRunnerTandemV2 is BenchmarkRunnerTandem compiled under
// determinism contract v2: the ziggurat exponential sampler replaces the
// -log(1-U) inversion in every arc plan. Everything else — executor
// bookkeeping and the binary-heap kernel — is shared with v1, so the delta
// against BenchmarkRunnerTandem is the sampler alone.
func BenchmarkRunnerTandemV2(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			const horizon = 2000
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				m := buildTandem(n)
				r, err := NewRunner(m, uint64(i)+1, WithContract(ContractV2))
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
		})
	}
}

// BenchmarkRunnerMM1 measures the executor on the smallest interesting
// model — an M/M/1 queue — where fixed per-event overhead (event
// allocation, case selection, reward observation) dominates.
func BenchmarkRunnerMM1(b *testing.B) {
	const horizon = 20000
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		m, _ := buildMM1(0.7, 1.0)
		r, err := NewRunner(m, uint64(i)+1)
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

// BenchmarkRunnerChain measures stabilization on pure-arc instantaneous
// chains (buildHopChain): every clock token walks the whole chain, so
// nearly all the work is instantaneous firings and the candidate scans
// between them. The model compiles once; each iteration resets the
// instance and runs one replication.
func BenchmarkRunnerChain(b *testing.B) {
	for _, n := range []int{48, 300} {
		b.Run(fmt.Sprintf("hops=%d", n), func(b *testing.B) {
			prog, err := Compile(buildHopChain(n, false))
			if err != nil {
				b.Fatal(err)
			}
			in, err := prog.NewInstance()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var firings uint64
			for i := 0; i < b.N; i++ {
				in.Reset(uint64(i) + 1)
				res, err := in.Run(200)
				if err != nil {
					b.Fatal(err)
				}
				firings += res.Firings
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(firings)/sec, "firings/s")
			}
		})
	}
}
