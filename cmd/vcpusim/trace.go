package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/obs/probe"
	"vcpusim/internal/obs/timeline"
)

// runTrace implements `vcpusim trace`: one deterministic replication on
// the SAN engine (timelines come from the executive's fire hooks, so
// the config's engine field is ignored) with the per-entity scheduling
// timeline exported as Chrome trace-event JSON, optionally alongside a
// time-series probe CSV. The outputs are pure functions of the config
// and seed — byte-identical across reruns.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vcpusim trace", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON experiment configuration (required)")
		outPath    = fs.String("out", "trace.json", "path the Chrome trace-event JSON is written to (load it in Perfetto or chrome://tracing)")
		probePath  = fs.String("probe", "", "also write a deterministic time-series probe CSV to this path")
		every      = fs.Float64("every", 0, "probe sampling cadence in virtual ticks (0 means horizon/100)")
		faultsPath = fs.String("faults", "", "path to a JSON fault-injection plan whose inject/recover instants join the trace")
		seed       = fs.Uint64("seed", 0, "override the config's seed (0 keeps it)")
		horizon    = fs.Int64("horizon", 0, "override the config's horizon (0 keeps it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("trace: -config is required")
	}
	if *outPath == "" {
		return fmt.Errorf("trace: -out is required")
	}

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
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	factory, err := exp.SchedulerFactory()
	if err != nil {
		return err
	}
	if *seed != 0 {
		exp.Seed = *seed
	}
	if *horizon != 0 {
		exp.HorizonTicks = *horizon
	}

	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		return err
	}
	// A flight recorder rides along so a model error or livelock dumps
	// the final decisions and firings instead of a bare message.
	w.SetFlightRecorder(obs.NewFlightRecorder(64))
	tr := timeline.New(w.System())
	w.SetFaultSink(tr)
	var smp *probe.Sampler
	if *probePath != "" {
		cad := *every
		if cad <= 0 {
			cad = float64(exp.HorizonTicks) / 100
		}
		smp, err = probe.New(w, cad)
		if err != nil {
			return err
		}
		// Compose: the probe samples the pre-fire left limit, the
		// timeline diffs the post-fire state.
		w.Instance().SetFireHooks(smp.Hook(), tr.Hook(w.Instance()))
	} else {
		tr.Install(w.Instance())
	}

	h := float64(exp.HorizonTicks)
	if _, err := w.Run(h, exp.Seed); err != nil {
		return err
	}
	tr.Finish(h)
	tf, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d events written to %s\n", tr.Events(), *outPath)

	if smp != nil {
		smp.Finish(h)
		sf, err := smp.WriteFile("trace-probe", *probePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "probe: %d points (%d bytes) written to %s\nprobe sha256: %s\n",
			sf.Points, sf.Bytes, sf.Path, sf.SHA256)
	}
	return nil
}
