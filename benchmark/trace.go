package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// sampleEvery is the sampling rate of the per-firing and per-call timers
// (san.fire, core.sched_fn, sched.Schedule): they read the clock on one
// call in sampleEvery and scale the sampled time up by the call count.
const sampleEvery = 16

// span is one timed call into a layer. Spans of one replication share
// (Cell, Rep); Rep is -1 for calls outside a replication.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Cell   string        `json:"cell"`
	Rep    int           `json:"rep"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// timer accumulates sampled durations of a call too frequent to span.
type timer struct {
	calls, sampled uint64
	ns             time.Duration
	start          time.Duration
	on             bool
}

func (t *timer) begin() {
	t.calls++
	t.on = t.calls%sampleEvery == 0
	if t.on {
		t.start = obs.Clock()
	}
}

// end closes a sampled call. A call that never ends (a firing that failed)
// is dropped by the next begin.
func (t *timer) end() {
	if t.on {
		t.ns += obs.Clock() - t.start
		t.sampled++
		t.on = false
	}
}

func (t *timer) add(o timer) {
	t.calls += o.calls
	t.sampled += o.sampled
	t.ns += o.ns
}

// perCall is the mean sampled call time in ns.
func (t timer) perCall() float64 { return ratio(float64(t.ns), float64(t.sampled)) }

// total estimates the time of every call in ns.
func (t timer) total() float64 { return t.perCall() * float64(t.calls) }

// tracer records spans in memory while traced passes run. The pass
// goroutine owns spans and slots; each slot is written only by the
// goroutine running its replications, and read after sim.RunPooled
// returns. A nil tracer records nothing.
type tracer struct {
	ids   atomic.Int64
	spans []span
	slots []*slot
}

func (t *tracer) open(name, cell string, rep int, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Name: name, Cell: cell, Rep: rep, Start: obs.Clock()}
}

func (t *tracer) close(s span) {
	if t != nil {
		s.End = obs.Clock()
		t.spans = append(t.spans, s)
	}
}

// newSlot registers the instrumentation of one sim worker slot.
func (t *tracer) newSlot(cell, algo string, parent int64) *slot {
	if t == nil {
		return nil
	}
	s := &slot{tr: t, cell: cell, algo: algo, parent: parent}
	t.slots = append(t.slots, s)
	return s
}

// slot is one worker slot's spans and timers. All methods are no-ops on a
// nil slot, which is what untraced passes use.
type slot struct {
	tr         *tracer
	cell, algo string
	parent     int64
	spans      []span
	fire       timer // sampled firings other than Scheduling_Func
	schedFn    timer // sampled Scheduling_Func firings
	sched      timer // sampled core.Scheduler.Schedule calls
}

func (s *slot) open(name string, rep int, parent int64) span {
	if s == nil {
		return span{}
	}
	return span{ID: s.tr.ids.Add(1), Parent: parent, Name: name, Cell: s.cell, Rep: rep, Start: obs.Clock()}
}

func (s *slot) openRep(rep int) span {
	if s == nil {
		return span{}
	}
	return s.open("sim.replication", rep, s.parent)
}

func (s *slot) openSetup(name string) span {
	if s == nil {
		return span{}
	}
	return s.open(name, -1, s.parent)
}

func (s *slot) close(sp span) {
	if s != nil {
		sp.End = obs.Clock()
		s.spans = append(s.spans, sp)
	}
}

// wrap times every Schedule call of the factory's schedulers. The wrapper
// is transparent: nothing in the simulator type-asserts a core.Scheduler.
func (s *slot) wrap(f core.SchedulerFactory) core.SchedulerFactory {
	if s == nil {
		return f
	}
	return func() core.Scheduler { return timedScheduler{inner: f(), t: &s.sched} }
}

type timedScheduler struct {
	inner core.Scheduler
	t     *timer
}

func (ts timedScheduler) Name() string { return ts.inner.Name() }

func (ts timedScheduler) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	ts.t.begin()
	ts.inner.Schedule(now, vcpus, pcpus, acts)
	ts.t.end()
}

// hook times firings through the instance's fire hooks, splitting the
// scheduling activity (nil when the model has none) from the rest.
func (s *slot) hook(inst *san.Instance, schedFn *san.Activity) {
	if s == nil {
		return
	}
	inst.SetFireHooks(
		func(a *san.Activity) {
			if a == schedFn {
				s.schedFn.begin()
			} else {
				s.fire.begin()
			}
		},
		func(a *san.Activity) {
			if a == schedFn {
				s.schedFn.end()
			} else {
				s.fire.end()
			}
		})
}

// allSpans returns every recorded span ordered by start time.
func (t *tracer) allSpans() []span {
	out := append([]span(nil), t.spans...)
	for _, s := range t.slots {
		out = append(out, s.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.allSpans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nameStats is the per-name rollup of spans: call count, inclusive time,
// and self time (inclusive minus the union of the children's intervals).
type nameStats struct {
	n           int
	total, self time.Duration
	durs        []time.Duration
}

func (n *nameStats) mean() time.Duration {
	if n == nil || n.n == 0 {
		return 0
	}
	return n.total / time.Duration(n.n)
}

// rollup is a traced run's span statistics. worker is the time worker
// slots spent inside sim.RunPooled: replications plus model builds.
type rollup struct {
	byName map[string]*nameStats
	worker time.Duration
}

func (r rollup) get(name string) *nameStats {
	if s := r.byName[name]; s != nil {
		return s
	}
	return &nameStats{}
}

func rollupSpans(spans []span) rollup {
	names := make(map[int64]string, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		names[s.ID] = s.Name
		children[s.Parent] = append(children[s.Parent], s)
	}
	r := rollup{byName: make(map[string]*nameStats)}
	for _, s := range spans {
		st := r.byName[s.Name]
		if st == nil {
			st = &nameStats{}
			r.byName[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		st.durs = append(st.durs, s.dur())
		if names[s.Parent] == "sim.RunPooled" {
			r.worker += s.dur()
		}
	}
	return r
}

// covered is the length of parent's interval covered by at least one
// child; children may overlap (parallel replications).
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([]span, len(children))
	copy(iv, children)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curS, curE := iv[0].Start, iv[0].End
	for _, c := range iv[1:] {
		if c.Start > curE {
			total += curE - curS
			curS, curE = c.Start, c.End
		} else if c.End > curE {
			curE = c.End
		}
	}
	total += curE - curS
	if total > parent.dur() {
		total = parent.dur()
	}
	return total
}

// layers are the simulator modules the breakdown attributes worker time
// to, in report order.
var layers = []string{"core", "sched", "san", "fastsim", "cluster"}

// layerMetrics derives the per-layer metrics from the traced passes.
// first is one traced pass, whose counters are exact; passes is the
// number of traced passes and events their event total (the per-event
// denominators).
func (t *tracer) layerMetrics(first passResult, passes int, events float64) map[string]float64 {
	r := rollupSpans(t.allSpans())
	var fire, schedFn, sched timer
	perAlgo := map[string]*timer{}
	for _, s := range t.slots {
		fire.add(s.fire)
		schedFn.add(s.schedFn)
		sched.add(s.sched)
		if s.algo != "" {
			if perAlgo[s.algo] == nil {
				perAlgo[s.algo] = &timer{}
			}
			perAlgo[s.algo].add(s.sched)
		}
	}

	self := map[string]float64{}
	for name, st := range r.byName {
		if l, _, ok := strings.Cut(name, "."); ok {
			self[l] += float64(st.self)
		}
	}
	// Move the sampled estimates to the layer that owns the code: the
	// scheduling firing belongs to core's model, the Schedule call inside
	// it (or inside fastsim's tick) to sched.
	if schedFn.calls > 0 {
		self["san"] -= schedFn.total()
		self["core"] += schedFn.total() - sched.total()
	} else {
		self["fastsim"] -= sched.total()
	}
	self["sched"] += sched.total()

	m := map[string]float64{}
	worker := float64(r.worker)
	for _, l := range layers {
		m[l+".self_share"] = ratio(self[l], worker)
	}
	m["trace.unexplained_share"] = ratio(float64(r.get("sim.replication").self), worker)
	m["trace.sample_every"] = sampleEvery
	pooled := r.get("sim.RunPooled")
	m["sim.control_share"] = ratio(float64(pooled.self), float64(pooled.total))
	reps := r.get("sim.replication")
	m["sim.rep_n"] = float64(reps.n)
	var repMS []float64
	for _, d := range reps.durs {
		repMS = append(repMS, ms(d))
	}
	m["sim.rep_ms_p50"] = quantile(repMS, 0.5)
	m["sim.rep_ms_p90"] = quantile(repMS, 0.9)
	m["sim.reps"] = float64(first.attempted())

	m["core.new_worker_ms"] = ms(r.get("core.NewWorker").mean())
	m["core.arm_us"] = us(r.get("core.Arm").mean())
	m["core.collect_us"] = us(r.get("core.Collect").mean())
	m["core.sched_fn_ns"] = ratio(schedFn.total()-sched.total(), float64(schedFn.calls))
	m["sched.schedule_ns"] = sched.perCall()
	for _, a := range algorithms {
		if pa := perAlgo[a]; pa != nil {
			m["sched.schedule_ns."+a] = pa.perCall()
		}
	}
	m["sched.calls"] = ratio(float64(sched.calls), float64(passes))

	loop := float64(r.get("san.events").total)
	m["san.event_ns"] = ratio(loop, events)
	m["san.fire_ns"] = fire.perCall()
	if loop > 0 {
		m["san.bookkeeping_ns_per_event"] = ratio(loop-fire.total()-schedFn.total(), events)
	}
	m["fastsim.new_us"] = us(r.get("fastsim.New").mean())
	m["fastsim.tick_ns"] = ratio(float64(r.get("fastsim.RunInterval").total), events)
	m["cluster.new_s"] = r.get("cluster.New").mean().Seconds()
	m["cluster.replicate_s"] = r.get("cluster.Replicate").mean().Seconds()

	c := first.counters
	if first.fast {
		m["fastsim.ticks"] = float64(c.Events)
		m["fastsim.jobs"] = float64(c.TimedFirings)
		m["fastsim.unblocks"] = float64(c.InstFirings)
		m["fastsim.schedule_ins"] = float64(c.Scheduled)
		m["fastsim.schedule_outs"] = float64(c.Cancelled)
	} else {
		m["san.events"] = float64(c.Events)
		m["san.timed_firings"] = float64(c.TimedFirings)
		m["san.inst_firings"] = float64(c.InstFirings)
		m["san.firings_per_event"] = ratio(float64(c.Firings), float64(c.Events))
		m["san.stabilize_iters"] = float64(c.StabilizeIters)
		m["san.max_stabilize_depth"] = float64(c.MaxStabilizeDepth)
		m["san.aborts"] = float64(c.Aborts)
		m["des.scheduled"] = float64(c.Scheduled)
		m["des.cancelled"] = float64(c.Cancelled)
		m["des.fired_per_scheduled"] = ratio(float64(c.Events), float64(c.Scheduled))
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of xs by linear interpolation; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// breakdownLine renders one workload's layer shares for the -breakdown
// view.
func breakdownLine(name string, m map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s", name)
	for _, l := range layers {
		fmt.Fprintf(&b, " %8.1f%%", 100*m[l+".self_share"])
	}
	fmt.Fprintf(&b, " %11.1f%% %11.1f%%", 100*m["trace.unexplained_share"], 100*m["sim.control_share"])
	return b.String()
}
