// Command benchmark is the repository's end-to-end benchmark: five user
// workloads of the simulator, each measured untraced for the end-to-end
// metrics and traced for a per-layer breakdown. See README.md.
//
//	go run . -workload paper-san -seed 1 -seconds 20 -trace 0
//	go run . -seed 1 -breakdown      # every workload, untraced and traced
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every replication ran and every output check passed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"vcpusim/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"mem_p90_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

// perLayer are the traced run's metrics (BENCHMARK.json per_layer). Every
// workload reports all of them; a layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"sim.reps", "count"},
	{"sim.rep_n", "count"},
	{"sim.rep_ms_p50", "ms"},
	{"sim.rep_ms_p90", "ms"},
	{"sim.control_share", "share"},
	{"core.new_worker_ms", "ms/call"},
	{"core.arm_us", "us/call"},
	{"core.collect_us", "us/call"},
	{"core.sched_fn_ns", "ns/call"},
	{"core.self_share", "share"},
	{"sched.schedule_ns", "ns/call"},
	{"sched.schedule_ns.RRS", "ns/call"},
	{"sched.schedule_ns.SCS", "ns/call"},
	{"sched.schedule_ns.RCS", "ns/call"},
	{"sched.calls", "count"},
	{"sched.self_share", "share"},
	{"san.event_ns", "ns/event"},
	{"san.fire_ns", "ns/call"},
	{"san.bookkeeping_ns_per_event", "ns/event"},
	{"san.events", "count"},
	{"san.timed_firings", "count"},
	{"san.inst_firings", "count"},
	{"san.firings_per_event", "ratio"},
	{"san.stabilize_iters", "count"},
	{"san.max_stabilize_depth", "count"},
	{"san.aborts", "count"},
	{"san.self_share", "share"},
	{"des.scheduled", "count"},
	{"des.cancelled", "count"},
	{"des.fired_per_scheduled", "ratio"},
	{"fastsim.new_us", "us/call"},
	{"fastsim.tick_ns", "ns/tick"},
	{"fastsim.ticks", "count"},
	{"fastsim.jobs", "count"},
	{"fastsim.unblocks", "count"},
	{"fastsim.schedule_ins", "count"},
	{"fastsim.schedule_outs", "count"},
	{"fastsim.self_share", "share"},
	{"cluster.new_s", "s/call"},
	{"cluster.replicate_s", "s/call"},
	{"cluster.fixed_ms", "ms/rep"},
	{"cluster.per_event_ns", "ns/event"},
	{"cluster.dispatches", "count"},
	{"cluster.migrations", "count"},
	{"cluster.queued_at_end", "count"},
	{"cluster.dispatch_ratio", "ratio"},
	{"cluster.self_share", "share"},
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.allocs_per_rep", "allocs/rep"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.unexplained_share", "share"},
	{"trace.sample_every", "count"},
	{"trace.calibration_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (empty: every workload, untraced then traced, each in its own process)")
		seed      = fs.Uint64("seed", 1, "seed every workload input derives from")
		seconds   = fs.Float64("seconds", 20, "how long one run measures, in seconds")
		traced    = fs.Int("trace", 0, "1: report per-layer metrics from traced passes instead of end-to-end metrics")
		breakdown = fs.Bool("breakdown", false, "with every workload: print each layer's share of worker time")
		out       = fs.String("out", ".bench_out", "directory traced runs write their span JSONL into")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *breakdown, stdout, stderr)
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, outDir: *out, size: benchSize, log: stderr}
	res, err := runOne(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	size     size
	log      io.Writer
}

// setupSamples is how many times a run measures set-up; setup_s is their
// median. Each sample repeats the set-up until it has run for at least
// setupMinSample, so microsecond set-ups are not lost in clock noise.
const (
	setupSamples   = 15
	setupMinSample = 20 * time.Millisecond
)

// passStats is one measured pass.
type passStats struct {
	res           passResult
	wall          time.Duration
	alloc, allocs uint64
	gcs           uint32
	pause         time.Duration
	memP90        float64
	traced        bool
	// cal is the mean of the calibrations run just before and just after
	// the pass.
	cal time.Duration
}

// nominal is the pass's wall time on the nominal host: its wall time
// scaled by how much slower than nominal the calibration around it ran.
func (p passStats) nominal() float64 {
	return p.wall.Seconds() * float64(nominalCalibration) / float64(p.cal)
}

// runOne runs one workload for o.seconds: untraced passes, or with o.trace
// untraced and traced passes in turn, then checks every pass's output.
func runOne(ctx context.Context, o options) (result, error) {
	w, err := newWorkload(o.workload, o.size)
	if err != nil {
		return result{}, err
	}
	chk, err := newChecker(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.log, "%s seed %d\n", o.workload, o.seed)
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var passes []passStats
	deadline := obs.Clock() + time.Duration(o.seconds*float64(time.Second))
	cal := calibrate(calibrationSteps)
	for i := 0; ; i++ {
		var ptr *tracer
		if i%2 == 1 {
			ptr = tr
		}
		ps := measurePass(ctx, w, o.seed, ptr)
		next := calibrate(calibrationSteps)
		ps.cal, cal = (cal+next)/2, next
		passes = append(passes, ps)
		kind := "untraced"
		if ps.traced {
			kind = "traced"
		}
		fmt.Fprintf(o.log, "  pass %d (%s): %.3f s, calibration %.1f ms, %.3f nominal s, %d replications, %d events\n",
			i+1, kind, ps.wall.Seconds(), ms(ps.cal), ps.nominal(), ps.res.attempted(), ps.res.counters.Events)
		done := !o.trace || i >= 1
		if done && obs.Clock()+ps.wall+next > deadline {
			break
		}
	}
	first := passes[0].res
	for _, cr := range first.cells {
		if cr.err == nil {
			if err := w.check(cr); err != nil {
				chk.rejectCell(cr.name, err.Error())
			}
		}
	}
	if g, ok := w.(*grid); ok && g.cross {
		maxErr := g.crossCheck(ctx, o.seed, first, chk)
		fmt.Fprintf(o.log, "  cross-engine max |mean difference| %.3g\n", maxErr)
	}
	res := result{Metrics: map[string]metric{}}
	all := make([]passResult, 0, len(passes))
	for _, ps := range passes {
		res.Attempted += ps.res.attempted()
		all = append(all, ps.res)
	}
	chk.tally(all)

	var values map[string]float64
	if o.trace {
		values = traceMetrics(tr, passes)
		if x, ok := w.(*fleet); ok {
			extra, short := x.layers(ctx, o.seed, values, passes[1].res)
			res.Attempted += short.attempted()
			for _, cr := range short.cells {
				err := cr.err
				if err == nil {
					err = w.check(cr)
				}
				if err != nil {
					chk.failed += cr.attempted
					chk.note("short-horizon pass: " + err.Error())
				}
			}
			for k, v := range extra {
				values[k] = v
			}
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeJSONL(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		var cals []float64
		for _, p := range passes {
			cals = append(cals, float64(p.cal))
		}
		// Scale host time to nominal host time.
		for _, d := range perLayer {
			if timeUnits[d.unit] {
				values[d.name] *= float64(nominalCalibration) / median(cals)
			}
		}
		values["trace.calibration_ms"] = median(cals) / float64(time.Millisecond)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		setup, err := measureSetup(w)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		values = endToEndMetrics(passes, setup)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	}
	res.Failed = chk.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, n := range chk.notes {
		fmt.Fprintf(o.log, "  WRONG %s\n", n)
	}
	fmt.Fprintf(o.log, "  error_rate %g (%d of %d replications)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(o.log, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// measureSetup returns the median time to build every model of the
// workload once, in nominal host time. Each sample is scaled by the
// calibrations just before and after it: set-up is measured after the
// passes, and scaling it by the passes' calibrations left a run-to-run
// spread of 19-39 % against 4-11 % this way.
func measureSetup(w workload) (time.Duration, error) {
	const steps = calibrationSteps / 10
	reps := 1
	samples := make([]float64, 0, setupSamples)
	cal := calibrate(steps)
	for len(samples) < setupSamples {
		runtime.GC()
		start := obs.Clock()
		for i := 0; i < reps; i++ {
			if err := w.setup(); err != nil {
				return 0, err
			}
		}
		el := obs.Clock() - start
		next := calibrate(steps)
		if len(samples) == 0 && el < setupMinSample && reps == 1 {
			// Repeat short set-ups enough to time them.
			reps = int(setupMinSample/max(el, time.Microsecond)) + 1
		} else {
			samples = append(samples, float64(el)/float64(reps)*float64(2*nominalCalibration)/float64(cal+next))
		}
		cal = next
	}
	return time.Duration(median(samples)), nil
}

// measurePass runs one pass after a collection that also returns all free
// memory to the OS, so every pass starts from the same heap and holds only
// the memory it needs, and records its wall time and memory.
func measurePass(ctx context.Context, w workload, seed uint64, tr *tracer) passStats {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := startMemSampler()
	start := obs.Clock()
	res := w.pass(ctx, seed, tr)
	wall := obs.Clock() - start
	mem90 := mem.stop()
	runtime.ReadMemStats(&m1)
	return passStats{
		res: res, wall: wall, traced: tr != nil, memP90: mem90,
		alloc: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs,
		gcs: m1.NumGC - m0.NumGC, pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// endToEndMetrics reports medians over the passes, every time in
// nominal host seconds.
func endToEndMetrics(passes []passStats, setup time.Duration) map[string]float64 {
	var walls, rates, mems, allocs []float64
	for _, p := range passes {
		walls = append(walls, p.nominal())
		rates = append(rates, float64(p.res.counters.Events)/p.nominal())
		mems = append(mems, p.memP90/(1<<20))
		allocs = append(allocs, float64(p.alloc)/(1<<20))
	}
	return map[string]float64{
		"wall_s":       median(walls),
		"events_per_s": median(rates),
		"setup_s":      setup.Seconds(),
		"mem_p90_mb":   median(mems),
		"alloc_mb":     median(allocs),
	}
}

// timeUnits are the per-layer units that measure host time; a traced run
// scales them to the nominal host like the end-to-end times.
var timeUnits = map[string]bool{
	"ms": true, "ms/call": true, "us/call": true, "ns/call": true,
	"ns/event": true, "ns/tick": true, "s/call": true, "ms/rep": true,
}

// traceMetrics derives the per-layer metrics: spans and sampled timers
// from the traced passes, runtime counters from the untraced ones.
func traceMetrics(tr *tracer, passes []passStats) map[string]float64 {
	var tracedWall, plainWall, alloc, allocs, gcs, pause []float64
	var events float64
	nTraced := 0
	for _, p := range passes {
		if p.traced {
			nTraced++
			events += float64(p.res.counters.Events)
			tracedWall = append(tracedWall, p.nominal())
			continue
		}
		plainWall = append(plainWall, p.nominal())
		alloc = append(alloc, float64(p.alloc))
		allocs = append(allocs, float64(p.allocs))
		gcs = append(gcs, float64(p.gcs))
		pause = append(pause, ms(p.pause))
	}
	first := passes[0].res
	m := tr.layerMetrics(passes[1].res, nTraced, events)
	m["runtime.alloc_bytes_per_event"] = ratio(median(alloc), float64(first.counters.Events))
	m["runtime.allocs_per_rep"] = ratio(median(allocs), float64(first.attempted()))
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_pause_ms"] = median(pause)
	m["trace.overhead"] = ratio(median(tracedWall), median(plainWall)) - 1
	return m
}

// memSampler samples the memory the Go runtime holds from the OS —
// everything it mapped minus what it returned — every memSampleEvery
// while a pass runs. A pass reports the 90th percentile of its samples.
// Process peak RSS was the first choice, but it is one maximum over a
// whole run: on the allocation-heavy workloads it caught rare GC
// overshoots and varied by 16-27 % between runs. So did the per-pass
// maximum of these samples (up to 16 %); their 90th percentile spreads by
// 1-7 %.
type memSampler struct {
	quit, done chan struct{}
	samples    []metrics.Sample
	held       []float64
}

const memSampleEvery = 10 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{
		quit: make(chan struct{}), done: make(chan struct{}),
		samples: []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}},
	}
	s.read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				s.read()
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *memSampler) read() {
	metrics.Read(s.samples)
	s.held = append(s.held, float64(s.samples[0].Value.Uint64()-s.samples[1].Value.Uint64()))
}

// stop ends sampling and returns the 90th percentile of the samples in
// bytes.
func (s *memSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return quantile(s.held, 0.9)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload untraced and then traced, each run in its own
// process so peak RSS is per workload, and prints every metric.
func runAll(seed uint64, seconds float64, breakdown bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	layerValues := map[string]map[string]float64{}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			r, perr := lastResult(out)
			if perr != nil {
				fmt.Fprintf(stderr, "benchmark: %s trace %s: %v (%v)\n", name, trace, perr, err)
				total.Correct = false
				continue
			}
			total.Correct = total.Correct && r.Correct && err == nil
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			fmt.Fprintf(stdout, "%s (trace %s): correct %t, %d of %d replications failed\n", name, trace, r.Correct, r.Failed, r.Attempted)
			values := map[string]float64{}
			for _, k := range sortedKeys(r.Metrics) {
				fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
				total.Metrics[name+"/"+k] = r.Metrics[k]
				values[k] = r.Metrics[k].Value
			}
			if trace == "1" {
				layerValues[name] = values
			}
		}
	}
	if breakdown {
		printBreakdown(stdout, layerValues)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return result{}, errors.New("no result line")
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// printBreakdown prints each workload's layer shares of worker time (the
// time worker slots spend building models and running replications) and
// the cluster's fixed versus per-event split.
func printBreakdown(w io.Writer, values map[string]map[string]float64) {
	fmt.Fprintf(w, "\nbreakdown: self time as a share of worker time; sim control as a share of sim.RunPooled time\n")
	fmt.Fprintf(w, "%-11s", "workload")
	for _, l := range layers {
		fmt.Fprintf(w, " %9s", l)
	}
	fmt.Fprintf(w, " %12s %12s\n", "unexplained", "sim.control")
	for _, name := range workloadNames {
		if m, ok := values[name]; ok {
			fmt.Fprintln(w, breakdownLine(name, m))
		}
	}
	if c, ok := values["cluster-250"]; ok {
		fmt.Fprintf(w, "cluster-250 replication: %.1f ms fixed + %.1f ns/event (paper-san san.event_ns %.1f ns/event)\n",
			c["cluster.fixed_ms"], c["cluster.per_event_ns"], values["paper-san"]["san.event_ns"])
	}
}
