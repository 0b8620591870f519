// Package timeline exports per-entity scheduling timelines as Chrome
// trace-event JSON (the format chrome://tracing and Perfetto load). A
// Tracker attaches to the SAN executive's post-fire hook and diffs each
// VCPU's and PCPU's state against its last-known value: every
// transition closes one complete ("X") event on that entity's track —
// ready / running / stalled / preempted for VCPUs; occupant, down, or
// throttled for PCPUs. Fault inject/recover instants arrive through the
// obs.Sink interface (install the tracker as the worker's fault sink)
// and render as instant ("i") events. The tracker reads model state
// through the Peek-only inspection surface and never touches wall time,
// so the exported trace is a pure function of the replication seed —
// byte-identical across reruns and parallelism settings.
package timeline

import (
	"encoding/json"
	"fmt"
	"io"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// Track pids: VCPU tracks under one synthetic process, PCPU tracks
// under another, so trace viewers group them into two lanes.
const (
	pidVCPUs = 1
	pidPCPUs = 2
)

// Tracker records one replication's scheduling timeline. Build one per
// traced replication with New, install its hook (and optionally the
// fault sink), run, then Finish and WriteJSON.
type Tracker struct {
	sys  *core.System
	inst *san.Instance

	vnames []string // VCPU display names, indexed by global VCPU id

	vLast, pLast   []string
	vSince, pSince []float64

	events []json.RawMessage
	err    error

	vc core.InspectVCPU
	pc core.InspectPCPU
}

// New builds a tracker over w's system. Entity tracks start empty; the
// first firing populates them.
func New(w *core.Worker) *Tracker {
	sys := w.System()
	t := &Tracker{
		sys:    sys,
		inst:   w.Instance(),
		vnames: make([]string, sys.NumVCPUs()),
		vLast:  make([]string, sys.NumVCPUs()),
		pLast:  make([]string, sys.NumPCPUs()),
		vSince: make([]float64, sys.NumVCPUs()),
		pSince: make([]float64, sys.NumPCPUs()),
	}
	for i := range t.vnames {
		t.vnames[i] = sys.VCPUName(i)
	}
	return t
}

// Install sets the tracker's post-fire hook on the worker's instance,
// replacing any installed hooks. To compose with other instrumentation
// (a probe's pre-fire hook), pass Hook() to san.Instance.SetFireHooks
// yourself.
func (t *Tracker) Install() {
	t.inst.SetFireHooks(nil, t.hookFn)
}

// Hook returns the post-fire hook recording transitions, for manual
// composition via san.Instance.SetFireHooks.
func (t *Tracker) Hook() func(*san.Activity) { return t.hookFn }

func (t *Tracker) hookFn(*san.Activity) {
	now := t.inst.Now()
	for i := range t.vLast {
		t.sys.InspectVCPU(i, &t.vc)
		t.transition(pidVCPUs, i, t.vLast, t.vSince, vcpuState(&t.vc), now)
	}
	for p := range t.pLast {
		t.sys.InspectPCPU(p, &t.pc)
		t.transition(pidPCPUs, p, t.pLast, t.pSince, t.pcpuState(&t.pc), now)
	}
}

// transition closes the entity's open interval when its state changed
// and opens the new one.
func (t *Tracker) transition(pid, tid int, last []string, since []float64, state string, now float64) {
	if state == last[tid] {
		return
	}
	if last[tid] != "" {
		t.complete(last[tid], pid, tid, since[tid], now)
	}
	last[tid] = state
	since[tid] = now
}

// vcpuState classifies one VCPU snapshot into its timeline state. An
// inactive VCPU with no pending work renders as a gap.
func vcpuState(v *core.InspectVCPU) string {
	switch {
	case v.Stalled:
		return "stalled"
	case v.Status == core.Busy:
		return "running"
	case v.Status == core.Ready:
		return "ready"
	case v.RemainingLoad > 0:
		return "preempted"
	default:
		return ""
	}
}

// pcpuState classifies one PCPU snapshot: down and throttled dominate,
// otherwise the track shows the occupant VCPU's name (idle is a gap).
func (t *Tracker) pcpuState(p *core.InspectPCPU) string {
	switch {
	case p.Down:
		return "down"
	case p.Throttle > 0:
		return "throttled"
	case p.VCPU >= 0 && p.VCPU < len(t.vnames):
		return t.vnames[p.VCPU]
	default:
		return ""
	}
}

// Finish closes every open interval at the horizon. Call it after the
// replication completes and before WriteJSON.
func (t *Tracker) Finish(horizon float64) {
	for i := range t.vLast {
		if t.vLast[i] != "" {
			t.complete(t.vLast[i], pidVCPUs, i, t.vSince[i], horizon)
			t.vLast[i] = ""
		}
	}
	for p := range t.pLast {
		if t.pLast[p] != "" {
			t.complete(t.pLast[p], pidPCPUs, p, t.pSince[p], horizon)
			t.pLast[p] = ""
		}
	}
}

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

func (t *Tracker) complete(name string, pid, tid int, from, to float64) {
	t.append(completeEvent{Name: name, Ph: "X", Ts: from, Dur: to - from, Pid: pid, Tid: tid})
}

func (t *Tracker) append(e any) {
	b, err := json.Marshal(e)
	if err != nil && t.err == nil {
		t.err = fmt.Errorf("timeline: encode event: %w", err)
		return
	}
	t.events = append(t.events, b)
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
	t.append(instantEvent{Name: verb + " " + name, Ph: "i", S: "g", Ts: ts, Pid: pidPCPUs, Tid: 0})
}

// Events returns the number of recorded trace events.
func (t *Tracker) Events() int { return len(t.events) }

// WriteJSON writes the Chrome trace: track metadata first (process and
// thread names in entity order), then every recorded event in record
// order — a deterministic byte stream for a deterministic replication.
func (t *Tracker) WriteJSON(w io.Writer) error {
	if t.err != nil {
		return t.err
	}
	var meta []json.RawMessage
	appendMeta := func(e metaEvent) {
		b, err := json.Marshal(e)
		if err != nil {
			t.err = fmt.Errorf("timeline: encode metadata: %w", err)
			return
		}
		meta = append(meta, b)
	}
	appendMeta(metaEvent{Name: "process_name", Ph: "M", Pid: pidVCPUs, Args: map[string]any{"name": "VCPUs"}})
	appendMeta(metaEvent{Name: "process_name", Ph: "M", Pid: pidPCPUs, Args: map[string]any{"name": "PCPUs"}})
	for i, n := range t.vnames {
		appendMeta(metaEvent{Name: "thread_name", Ph: "M", Pid: pidVCPUs, Tid: i, Args: map[string]any{"name": n}})
	}
	for p := 0; p < t.sys.NumPCPUs(); p++ {
		appendMeta(metaEvent{Name: "thread_name", Ph: "M", Pid: pidPCPUs, Tid: p, Args: map[string]any{"name": fmt.Sprintf("PCPU%d", p)}})
	}
	if t.err != nil {
		return t.err
	}
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	all := append(meta, t.events...)
	for i, b := range all {
		sep := ",\n"
		if i == len(all)-1 {
			sep = "\n"
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
