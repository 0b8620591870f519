package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vcpusim/internal/config"
	"vcpusim/internal/obs"
)

// benchTopology builds an n-host fleet for throughput measurement: every
// host is a 2-PCPU machine with one resident 2-VCPU VM and two parked
// 1-VCPU slots, an arrival wave dispatches one 1-VCPU VM per host, and
// threshold migration is armed — so the measured path includes the
// cluster event queue, placement, and migration, not just the per-host
// step loop.
func benchTopology(hosts int, horizon float64) *Topology {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	t := &Topology{
		Horizon:   horizon,
		Placement: "least-loaded",
		Hosts: []HostGroup{{
			Name:  "node",
			Count: hosts,
			PCPUs: 2,
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load, SyncEveryN: 5}, Count: 2},
			},
		}},
		Arrivals: []Arrival{{At: 0.2 * horizon, Count: hosts, VCPUs: 1}},
		Migration: &Migration{
			CheckEvery:    horizon / 20,
			HighUtil:      0.85,
			LowUtil:       0.6,
			TransferDelay: horizon / 100,
		},
	}
	t.applyDefaults()
	return t
}

// BenchmarkClusterReplicate measures whole-cluster replication
// throughput (SAN events per second across all hosts) at three fleet
// sizes. The horizon shrinks as the fleet grows so one op stays a
// comparable amount of total work; events/s is the scale-free number.
// Orchestrator construction (compiling every host) is outside the
// timed region — the pooled executive pays it once per worker slot.
func BenchmarkClusterReplicate(b *testing.B) {
	cases := []struct {
		hosts   int
		horizon float64
	}{
		{10, 2000},
		{100, 500},
		{1000, 50},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("hosts=%d", c.hosts), func(b *testing.B) {
			topo := benchTopology(c.hosts, c.horizon)
			o, err := New(topo)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				if _, err := o.Replicate(ctx, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
				events += o.LastStats().Events
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/s")
			}
		})
	}
}

// BenchmarkClusterFixedHorizon runs every fleet size at one horizon and
// splits a replication into its costs: stepping, reported per host
// event; the fixed per-replication arm plus collect over every host;
// and the caller's serial work inside run outside the windows (cluster
// events: placement, migration checks, admissions), per host event. It
// also reports the windows a replication steps in.
// BenchmarkClusterReplicate shrinks its horizon as the fleet grows, so
// its events/s mixes the two; it stays unchanged because recorded
// baselines gate it.
func BenchmarkClusterFixedHorizon(b *testing.B) {
	for _, hosts := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			o, err := New(benchTopology(hosts, 50))
			if err != nil {
				b.Fatal(err)
			}
			o.clock = obs.Clock
			ctx := context.Background()
			var events, windows uint64
			var step, fixed time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := obs.Clock()
				if err := o.arm(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
				t1 := obs.Clock()
				if err := o.run(ctx); err != nil {
					b.Fatal(err)
				}
				t2 := obs.Clock()
				if _, err := o.collect(); err != nil {
					b.Fatal(err)
				}
				o.dismiss()
				t3 := obs.Clock()
				step += t2 - t1
				fixed += t1 - t0 + t3 - t2
				st := o.LastStats()
				events += st.Events
				windows += st.Windows
			}
			b.StopTimer()
			b.ReportMetric(float64(windows)/float64(b.N), "windows/rep")
			if events > 0 {
				b.ReportMetric(float64(step.Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(o.serial.Nanoseconds())/float64(events), "serial-ns/event")
			}
			b.ReportMetric(float64(fixed.Nanoseconds())/1e3/float64(b.N), "arm+collect-us/rep")
		})
	}
}
