// Package timeline records per-entity scheduling timelines for both
// engines and renders them as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load) or as a text Gantt chart of PCPU
// occupancy. A Tracker diffs each VCPU's and PCPU's state against its
// last-known value at every observation: every transition closes one
// interval on that entity's track — ready / running / stalled /
// preempted for VCPUs; occupant, down, or throttled for PCPUs. The SAN
// engine is observed from the executive's post-fire hook (Install), the
// fast engine from its tick hook (fastsim.Engine.SetTickHook). Fault
// inject/recover instants arrive through the obs.Sink interface (install
// the tracker as the worker's fault sink) and render as instant ("i")
// events. The tracker reads model state through the read-only Source
// surface and never touches wall time, so the recorded timeline is a
// pure function of the replication seed — byte-identical across reruns
// and parallelism settings.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// Source is the read-only inspection surface a Tracker diffs. Both
// engines satisfy it: *core.System and *fastsim.Engine.
type Source interface {
	NumVCPUs() int
	NumPCPUs() int
	VCPUName(i int) string
	InspectVCPU(i int, dst *core.InspectVCPU)
	InspectPCPU(i int, dst *core.PCPUView)
}

// Track pids: VCPU tracks under one synthetic process, PCPU tracks
// under another, so trace viewers group them into two lanes.
const (
	pidVCPUs = 1
	pidPCPUs = 2
)

// Track states. A VCPU track's state indexes vcpuStates; a PCPU track's
// is its occupant's VCPU id, or down or throttled. gap (an inactive VCPU
// with no pending work, an idle PCPU) records no interval.
const (
	ready = iota
	running
	stalled
	preempted

	gap       = -1
	down      = -2
	throttled = -3
)

var vcpuStates = [...]string{ready: "ready", running: "running", stalled: "stalled", preempted: "preempted"}

// span is one recorded trace event: the interval [from, to) of state on
// track (pid, tid), or, when instant is set, a fault instant at from.
type span struct {
	pid, tid, state int
	from, to        float64
	instant         string
}

// Tracker records one replication's scheduling timeline. Build one per
// traced replication with New, attach it to the engine, run, then
// Finish and render with WriteJSON or Gantt.
type Tracker struct {
	src    Source
	vnames []string // VCPU display names, indexed by global VCPU id

	vLast, pLast   []int
	vSince, pSince []float64

	spans []span

	vc core.InspectVCPU
	pc core.PCPUView
}

// New builds a tracker over src. Entity tracks start empty; the first
// observation populates them.
func New(src Source) *Tracker {
	nv, np := src.NumVCPUs(), src.NumPCPUs()
	t := &Tracker{
		src:    src,
		vnames: make([]string, nv),
		vLast:  make([]int, nv),
		pLast:  make([]int, np),
		vSince: make([]float64, nv),
		pSince: make([]float64, np),
	}
	for i := range t.vnames {
		t.vnames[i] = src.VCPUName(i)
		t.vLast[i] = gap
	}
	for p := range t.pLast {
		t.pLast[p] = gap
	}
	return t
}

// Install sets the tracker's post-fire hook on a SAN instance,
// replacing any installed hooks. To compose with other instrumentation
// (a probe's pre-fire hook), pass Hook(inst) to san.Instance.SetFireHooks
// yourself.
func (t *Tracker) Install(inst *san.Instance) {
	inst.SetFireHooks(nil, t.Hook(inst))
}

// Hook returns a post-fire hook observing the source at inst's time
// after every firing, for manual composition via
// san.Instance.SetFireHooks.
func (t *Tracker) Hook(inst *san.Instance) func(*san.Activity) {
	return func(*san.Activity) { t.Observe(inst.Now()) }
}

// Observe diffs every entity's state at virtual time now against its
// last-known state.
func (t *Tracker) Observe(now float64) {
	for i := range t.vLast {
		t.src.InspectVCPU(i, &t.vc)
		t.transition(pidVCPUs, i, t.vLast, t.vSince, vcpuState(&t.vc), now)
	}
	for p := range t.pLast {
		t.src.InspectPCPU(p, &t.pc)
		t.transition(pidPCPUs, p, t.pLast, t.pSince, t.pcpuState(&t.pc), now)
	}
}

// transition closes the entity's open interval when its state changed
// and opens the new one.
func (t *Tracker) transition(pid, tid int, last []int, since []float64, state int, now float64) {
	if state == last[tid] {
		return
	}
	if last[tid] != gap {
		t.spans = append(t.spans, span{pid: pid, tid: tid, state: last[tid], from: since[tid], to: now})
	}
	last[tid] = state
	since[tid] = now
}

// vcpuState classifies one VCPU snapshot into its timeline state. An
// inactive VCPU with no pending work renders as a gap.
func vcpuState(v *core.InspectVCPU) int {
	switch {
	case v.Stalled:
		return stalled
	case v.Status == core.Busy:
		return running
	case v.Status == core.Ready:
		return ready
	case v.RemainingLoad > 0:
		return preempted
	default:
		return gap
	}
}

// pcpuState classifies one PCPU snapshot: down and throttled dominate,
// otherwise the track shows the occupant VCPU (idle is a gap).
func (t *Tracker) pcpuState(p *core.PCPUView) int {
	switch {
	case p.Down:
		return down
	case p.Throttle > 0:
		return throttled
	case p.VCPU >= 0 && p.VCPU < len(t.vnames):
		return p.VCPU
	default:
		return gap
	}
}

// Finish closes every open interval at the horizon. Call it after the
// replication completes and before rendering.
func (t *Tracker) Finish(horizon float64) {
	for i := range t.vLast {
		t.transition(pidVCPUs, i, t.vLast, t.vSince, gap, horizon)
	}
	for p := range t.pLast {
		t.transition(pidPCPUs, p, t.pLast, t.pSince, gap, horizon)
	}
}

// Emit implements obs.Sink: fault.inject / fault.recover spans from the
// worker's fault injector become global instant events stamped at the
// fault's virtual time. Other span kinds are ignored, so the tracker
// can sit in a Multi sink fan-out.
func (t *Tracker) Emit(e obs.Event) {
	var verb string
	switch e.Kind {
	case obs.KindFaultInject:
		verb = "inject"
	case obs.KindFaultRecover:
		verb = "recover"
	default:
		return
	}
	attrs, _ := e.Attrs.(map[string]any)
	name, _ := attrs["fault"].(string)
	var ts float64
	switch v := attrs["t"].(type) {
	case int64:
		ts = float64(v)
	case float64:
		ts = v
	}
	t.spans = append(t.spans, span{pid: pidPCPUs, from: ts, instant: verb + " " + name})
}

// Events returns the number of recorded trace events.
func (t *Tracker) Events() int { return len(t.spans) }

// completeEvent is a Chrome trace complete event: one closed interval
// on one track. Virtual ticks map to microseconds (the format's time
// unit), so one simulated tick renders as 1µs.
type completeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// instantEvent is a Chrome trace instant event (fault transitions).
type instantEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	S    string  `json:"s"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// metaEvent names a process or thread track.
type metaEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// stateName is the trace name of a span's state on its track.
func (t *Tracker) stateName(s span) string {
	switch {
	case s.pid == pidVCPUs:
		return vcpuStates[s.state]
	case s.state == down:
		return "down"
	case s.state == throttled:
		return "throttled"
	default:
		return t.vnames[s.state]
	}
}

// WriteJSON writes the Chrome trace: track metadata first (process and
// thread names in entity order), then every recorded event in record
// order — a deterministic byte stream for a deterministic replication.
func (t *Tracker) WriteJSON(w io.Writer) error {
	events := make([]any, 0, 2+len(t.vnames)+len(t.pLast)+len(t.spans))
	events = append(events,
		metaEvent{Name: "process_name", Ph: "M", Pid: pidVCPUs, Args: map[string]any{"name": "VCPUs"}},
		metaEvent{Name: "process_name", Ph: "M", Pid: pidPCPUs, Args: map[string]any{"name": "PCPUs"}})
	for i, n := range t.vnames {
		events = append(events, metaEvent{Name: "thread_name", Ph: "M", Pid: pidVCPUs, Tid: i, Args: map[string]any{"name": n}})
	}
	for p := range t.pLast {
		events = append(events, metaEvent{Name: "thread_name", Ph: "M", Pid: pidPCPUs, Tid: p, Args: map[string]any{"name": fmt.Sprintf("PCPU%d", p)}})
	}
	for _, s := range t.spans {
		if s.instant != "" {
			events = append(events, instantEvent{Name: s.instant, Ph: "i", S: "g", Ts: s.from, Pid: s.pid, Tid: s.tid})
		} else {
			events = append(events, completeEvent{Name: t.stateName(s), Ph: "X", Ts: s.from, Dur: s.to - s.from, Pid: s.pid, Tid: s.tid})
		}
	}
	// A bufio.Writer's write errors are sticky: Flush returns the first.
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("timeline: encode event: %w", err)
		}
		bw.Write(b)
		if i < len(events)-1 {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// Gantt renders the PCPU tracks as text: one row per PCPU, one
// character per step ticks from tick 0 ('.' idle, the occupant's
// vcpuRune otherwise), at most width characters when width > 0, and
// cut at horizon. Where intervals share a character the later one
// shows. Zero-length intervals and the down and throttled states are
// not drawn. Call it after Finish.
func (t *Tracker) Gantt(horizon, step int64, width int) string {
	step = max(step, 1)
	cols := max(int(horizon/step), 1)
	if width > 0 && cols > width {
		cols = width
	}
	grid := make([][]rune, len(t.pLast))
	for p := range grid {
		grid[p] = []rune(strings.Repeat(".", cols))
	}
	for _, s := range t.spans {
		if s.instant != "" || s.pid != pidPCPUs || s.state < 0 || s.to <= s.from {
			continue
		}
		from, to := int64(s.from), int64(s.to)
		for c := from / step; c <= (to-1)/step && c < int64(cols); c++ {
			grid[s.tid][c] = vcpuRune(s.state)
		}
	}
	var b strings.Builder
	for p := range grid {
		fmt.Fprintf(&b, "PCPU%-2d %s\n", p, string(grid[p]))
	}
	return b.String()
}

// vcpuRune maps a VCPU id to a display rune (0-9, a-z, then '#').
func vcpuRune(id int) rune {
	switch {
	case id < 10:
		return rune('0' + id)
	case id < 36:
		return rune('a' + id - 10)
	default:
		return '#'
	}
}
