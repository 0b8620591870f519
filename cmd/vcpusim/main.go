// Command vcpusim runs one simulation experiment described by a JSON
// configuration file and prints the measured metrics with confidence
// intervals.
//
// Usage:
//
//	vcpusim -config experiment.json
//	vcpusim -config experiment.json -single -gantt
//	vcpusim -config experiment.json -single -stats
//	vcpusim -config experiment.json -single -faults plan.json
//	vcpusim vet -config experiment.json
//	vcpusim experiments -figure 8 -quick -manifest out/
//	vcpusim manifest -check out/manifest.json
//	vcpusim trace -config experiment.json -out trace.json -probe series.csv
//	vcpusim cluster -topology topology.json
//
// With -single, exactly one replication runs (point estimates, an
// optional text Gantt chart of PCPU occupancy, and -stats engine-counter
// dump);
// otherwise the configured confidence-interval controlled replications
// run. The vet subcommand runs the static verifiers (model structure and
// source determinism) instead of simulating (see internal/vet); the
// experiments subcommand is the full figure driver (see
// internal/expcli); the manifest subcommand validates a run manifest
// against the embedded schema, counter invariants, and probe series
// hashes; the trace subcommand exports one replication's per-entity
// scheduling timeline as Chrome trace-event JSON (Perfetto-loadable),
// optionally with a deterministic time-series probe CSV; the cluster
// subcommand runs a multi-host topology under one global clock (see
// internal/cluster).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/expcli"
	"vcpusim/internal/fastsim"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/obs/timeline"
	"vcpusim/internal/san"
	"vcpusim/internal/sim"
	"vcpusim/internal/vet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vcpusim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	if len(args) > 0 {
		switch args[0] {
		case "vet":
			return vet.Run(args[1:], out)
		case "experiments":
			return expcli.Run(args[1:], out)
		case "manifest":
			return runManifest(args[1:], out)
		case "trace":
			return runTrace(args[1:], out)
		case "cluster":
			return runCluster(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("vcpusim", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON experiment configuration (required)")
		single     = fs.Bool("single", false, "run a single replication instead of CI-controlled replications")
		gantt      = fs.Bool("gantt", false, "with -single on the fast engine: print a text Gantt chart of PCPU occupancy (`vcpusim trace` exports the full timeline)")
		showStats  = fs.Bool("stats", false, "with -single: print engine counters (events, firings, stabilization depth, events/s)")
		faultsPath = fs.String("faults", "", "path to a JSON fault-injection plan (SAN engine only)")
	)
	var prof obs.Profiles
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("-config is required")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	f, err := os.Open(*configPath)
	if err != nil {
		return err
	}
	exp, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	cfg, err := exp.SystemConfig()
	if err != nil {
		return err
	}
	if *faultsPath != "" {
		if exp.Engine != "san" {
			return fmt.Errorf("-faults requires the SAN engine (set \"engine\": \"san\" in the config)")
		}
		pf, err := os.Open(*faultsPath)
		if err != nil {
			return err
		}
		plan, err := faults.Parse(pf)
		pf.Close()
		if err != nil {
			return err
		}
		cfg.Faults = plan
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	factory, err := exp.SchedulerFactory()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "system: %s\nscheduler: %s, engine: %s, horizon: %d ticks\n\n",
		cfg, exp.Scheduler.Name, exp.Engine, exp.HorizonTicks)

	if *single {
		return runSingle(out, cfg, factory, exp, *gantt, *showStats)
	}
	return runReplicated(out, cfg, factory, exp)
}

// runManifest implements `vcpusim manifest -check path`: schema
// validation plus the counter invariants every healthy run satisfies.
func runManifest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vcpusim manifest", flag.ContinueOnError)
	check := fs.String("check", "", "path to a manifest.json to validate (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check == "" {
		return fmt.Errorf("manifest: -check is required")
	}
	m, err := obs.ReadManifest(*check)
	if err != nil {
		return err
	}
	if err := m.CheckCounters(); err != nil {
		return err
	}
	if err := m.VerifySeries(filepath.Dir(*check)); err != nil {
		return err
	}
	fmt.Fprintf(out, "manifest ok: %s, %d cells, %d series, go %s\n", m.Tool, len(m.Cells), len(m.Series), m.GoVersion)
	return nil
}

// runSingle executes one replication, optionally rendering its PCPU
// occupancy as a Gantt chart.
func runSingle(out io.Writer, cfg core.SystemConfig, factory core.SchedulerFactory, exp *config.Experiment, gantt, showStats bool) error {
	var (
		metrics map[string]float64
		tr      *timeline.Tracker
		err     error
	)
	switch {
	case exp.Engine == "san":
		if gantt {
			return fmt.Errorf("-gantt requires the fast engine")
		}
		if showStats {
			return runSingleSANStats(out, cfg, factory, exp)
		}
		metrics, err = core.RunReplication(cfg, factory, float64(exp.HorizonTicks), exp.Seed)
	default:
		eng, buildErr := fastsim.New(cfg, factory(), exp.Seed)
		if buildErr != nil {
			return buildErr
		}
		if gantt {
			tr = timeline.New(eng)
			eng.SetTickHook(func(now int64) { tr.Observe(float64(now)) })
		}
		metrics, err = eng.Run(exp.HorizonTicks)
		if err == nil && showStats {
			defer printFastStats(out, eng.Stats())
		}
	}
	if err != nil {
		return err
	}

	printMetrics(out, metrics)

	if tr != nil {
		step := max(1, exp.HorizonTicks/100)
		tr.Finish(float64(exp.HorizonTicks))
		fmt.Fprintf(out, "\nPCPU occupancy (1 char = %d ticks):\n%s", step, tr.Gantt(exp.HorizonTicks, step, 100))
	}
	return nil
}

// runSingleSANStats runs one SAN replication through a Worker with the
// clock and per-activity counters enabled, then dumps the stats.
func runSingleSANStats(out io.Writer, cfg core.SystemConfig, factory core.SchedulerFactory, exp *config.Experiment) error {
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		return err
	}
	w.SetClock(obs.Clock)
	w.EnableActivityStats()
	metrics, err := w.Run(float64(exp.HorizonTicks), exp.Seed)
	if err != nil {
		return err
	}
	printMetrics(out, metrics)
	printSANStats(out, w.LastStats(), w.Program().ActivityNames())
	return nil
}

func printMetrics(out io.Writer, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-24s %.4f\n", n, metrics[n])
	}
}

func printSANStats(out io.Writer, s san.Stats, names []string) {
	fmt.Fprintf(out, "\nengine counters (san):\n")
	fmt.Fprintf(out, "  events fired            %d\n", s.EventsFired)
	fmt.Fprintf(out, "  timed firings           %d\n", s.TimedFirings)
	fmt.Fprintf(out, "  instantaneous firings   %d\n", s.InstFirings)
	fmt.Fprintf(out, "  aborted activities      %d\n", s.Aborts)
	fmt.Fprintf(out, "  events scheduled        %d\n", s.EventsScheduled)
	fmt.Fprintf(out, "  events cancelled        %d\n", s.EventsCancelled)
	fmt.Fprintf(out, "  stabilization iters     %d (max depth %d)\n", s.StabilizeIters, s.MaxStabilizeDepth)
	if s.WallTime > 0 {
		fmt.Fprintf(out, "  wall time               %s (%.0f events/s)\n", s.WallTime, s.EventsPerSec())
	}
	if len(s.ActivityFirings) == len(names) && len(names) > 0 {
		fmt.Fprintf(out, "  activity firings:\n")
		for i, n := range names {
			if s.ActivityFirings[i] > 0 {
				fmt.Fprintf(out, "    %-32s %d\n", n, s.ActivityFirings[i])
			}
		}
	}
}

func printFastStats(out io.Writer, s fastsim.Stats) {
	fmt.Fprintf(out, "\nengine counters (fast):\n")
	fmt.Fprintf(out, "  ticks                   %d\n", s.Ticks)
	fmt.Fprintf(out, "  jobs completed          %d\n", s.Jobs)
	fmt.Fprintf(out, "  sync unblocks           %d\n", s.Unblocks)
	fmt.Fprintf(out, "  schedule-ins            %d\n", s.ScheduleIns)
	fmt.Fprintf(out, "  schedule-outs           %d\n", s.ScheduleOuts)
}

// runReplicated executes CI-controlled replications through the pooled
// executive: on the SAN engine each worker slot compiles the model once.
func runReplicated(out io.Writer, cfg core.SystemConfig, factory core.SchedulerFactory, exp *config.Experiment) error {
	var fac sim.ReplicatorFactory
	if exp.Engine == "san" {
		fac = func() (sim.Replicator, error) {
			w, err := core.NewWorker(cfg, factory)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
				return w.RunIntervalContext(ctx, 0, float64(exp.HorizonTicks), seed)
			}, nil
		}
	} else {
		rep := func(ctx context.Context, _ int, seed uint64) (map[string]float64, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return fastsim.RunReplication(cfg, factory, exp.HorizonTicks, seed)
		}
		fac = func() (sim.Replicator, error) { return rep, nil }
	}
	sum, err := sim.RunPooled(context.Background(), fac, exp.SimOptions())
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
