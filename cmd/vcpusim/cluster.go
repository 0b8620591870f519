package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"vcpusim/internal/cluster"
	"vcpusim/internal/obs"
	"vcpusim/internal/sim"
)

// runCluster implements `vcpusim cluster -topology t.json`: it parses a
// cluster topology, compiles every host into its own shard, and runs the
// configured CI-controlled replications (or one, with -single) under the
// shared-clock orchestrator, printing fleet metrics.
func runCluster(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vcpusim cluster", flag.ContinueOnError)
	var (
		topoPath = fs.String("topology", "", "path to the JSON cluster topology (required)")
		single   = fs.Bool("single", false, "run a single replication (point estimates) instead of CI-controlled replications")
		seed     = fs.Uint64("seed", 0, "override the topology's seed (0 keeps the topology's)")
		parallel = fs.Int("parallel", 0, "concurrent replications (0 = GOMAXPROCS); results are identical at any value")
		stats    = fs.Bool("stats", false, "print the last replication's aggregated engine counters (with -single)")
		hosts    = fs.Bool("hosts", false, "with -single: also print every host's raw metric map")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" {
		return fmt.Errorf("cluster: -topology is required")
	}
	f, err := os.Open(*topoPath)
	if err != nil {
		return err
	}
	topo, err := cluster.ParseTopology(f)
	f.Close()
	if err != nil {
		return err
	}
	if *seed != 0 {
		topo.Seed = *seed
	}
	name := topo.Name
	if name == "" {
		name = *topoPath
	}
	fmt.Fprintf(out, "cluster: %s — %d hosts, %d VCPUs provisioned, placement %s, horizon %g ticks\n\n",
		name, topo.NumHosts(), topo.TotalVCPUs(), topo.Placement, topo.Horizon)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *single {
		o, err := cluster.New(topo)
		if err != nil {
			return err
		}
		metrics, err := o.Replicate(ctx, topo.Seed)
		if err != nil {
			return err
		}
		printMetrics(out, metrics)
		if *hosts {
			for h := 0; h < o.NumHosts(); h++ {
				fmt.Fprintf(out, "\nhost %d:\n", h)
				printMetrics(out, o.HostMetrics(h))
			}
		}
		if *stats {
			printClusterStats(out, o.LastStats())
		}
		return nil
	}

	opts := topo.SimOptions()
	opts.Parallelism = *parallel
	sum, err := sim.RunPooled(ctx, topo.ReplicatorFactory(nil, nil), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replications: %d (converged: %v, %.0f%% confidence)\n\n",
		sum.Replications, sum.Converged, sum.Level*100)
	for _, n := range sum.MetricNames() {
		fmt.Fprintf(out, "%-24s %v\n", n, sum.Metrics[n])
	}
	return nil
}

// printClusterStats dumps the orchestrator's fleet-wide counter rollup.
func printClusterStats(out io.Writer, c obs.Counters) {
	fmt.Fprintf(out, "\nengine counters (cluster):\n")
	fmt.Fprintf(out, "  events fired            %d\n", c.Events)
	fmt.Fprintf(out, "  timed firings           %d\n", c.TimedFirings)
	fmt.Fprintf(out, "  instantaneous firings   %d\n", c.InstFirings)
	fmt.Fprintf(out, "  aborted activities      %d\n", c.Aborts)
	fmt.Fprintf(out, "  events scheduled        %d\n", c.Scheduled)
	fmt.Fprintf(out, "  events cancelled        %d\n", c.Cancelled)
	fmt.Fprintf(out, "  dispatches              %d\n", c.Dispatches)
	fmt.Fprintf(out, "  migrations              %d\n", c.Migrations)
}
