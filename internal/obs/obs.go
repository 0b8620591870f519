// Package obs is the simulation framework's telemetry layer: structured
// span events emitted by the experiment grid and the replication
// controller, engine-counter rollups, run manifests recording experiment
// provenance, and profiling hooks for the command-line binaries.
//
// The layer is zero-cost when off. Every emitter holds a pre-bound Sink
// interface value and guards each emission with a nil check; with no sink
// installed no event is constructed, no map is built, and the simulation
// hot paths are untouched (the always-on engine counters are plain integer
// increments on state the engine already owns). Wall-clock reads live in
// this package only — simulation packages are barred from time.Now by the
// determinism lint (internal/golint) and receive wall time, when they need
// it at all, through an injected clock (see Clock).
package obs

import (
	"sync/atomic"
	"time"
)

// Span-event kinds. The JSONL schema is one Event object per line; every
// kind uses the subset of Event's fields documented here:
//
//   - cell.start: Cell.
//   - cell.end:   Cell, Reps, Converged, ElapsedNS, Counters.
//   - sim.batch:  Cell (when decorated), Batch, Size, Reps: one event
//     per folded replication, so Batch and Reps are its 1-based index
//     and Size is 1.
//   - sim.stop:   Cell, Reps, Converged, Widths (per-metric relative CI
//     half-widths at this stopping-rule check; non-finite widths omitted).
//   - fault.inject / fault.recover: Attrs carries the fault name, kind,
//     and injection/recovery timestamp (see internal/faults).
//   - cluster.dispatch / cluster.migrate: Attrs carries the orchestrator's
//     placement or migration record — virtual time, VM size, and the
//     host(s) involved (see internal/cluster).
//   - trace.*:    Attrs carries the scheduling trace event (see the trace
//     package's obs adapter).
const (
	KindCellStart    = "cell.start"
	KindCellEnd      = "cell.end"
	KindBatch        = "sim.batch"
	KindStop         = "sim.stop"
	KindFaultInject  = "fault.inject"
	KindFaultRecover = "fault.recover"
	KindDispatch     = "cluster.dispatch"
	KindMigrate      = "cluster.migrate"
)

// Event is one structured telemetry event. Fields are a union across the
// kinds above; unused fields stay zero and are omitted from JSON.
type Event struct {
	Kind      string             `json:"kind"`
	Cell      string             `json:"cell,omitempty"`
	Batch     int                `json:"batch,omitempty"`
	Size      int                `json:"size,omitempty"`
	Reps      int                `json:"reps,omitempty"`
	Converged bool               `json:"converged,omitempty"`
	ElapsedNS int64              `json:"elapsed_ns,omitempty"`
	Widths    map[string]float64 `json:"widths,omitempty"`
	Counters  *Counters          `json:"counters,omitempty"`
	// Hist carries per-cell histogram digests on cell.end events when the
	// run accumulated distribution rewards (see Histogram); nil otherwise,
	// so runs without histograms emit byte-identical spans to before the
	// field existed.
	Hist  map[string]HistSummary `json:"hist,omitempty"`
	Attrs any                    `json:"attrs,omitempty"`
}

// Sink consumes telemetry events. Implementations must be safe for
// concurrent Emit calls: grid cells and replication batches run in
// parallel. Emitters treat a nil Sink as "telemetry off" and skip event
// construction entirely.
type Sink interface {
	Emit(Event)
}

// cellSink decorates a sink with a cell name.
type cellSink struct {
	sink Sink
	cell string
}

func (c cellSink) Emit(e Event) {
	if e.Cell == "" {
		e.Cell = c.cell
	}
	c.sink.Emit(e)
}

// WithCell returns a sink that stamps cell onto every event that does not
// already carry one, so nested emitters (the replication controller) need
// not know which grid cell they run in. A nil sink stays nil.
func WithCell(s Sink, cell string) Sink {
	if s == nil {
		return nil
	}
	return cellSink{sink: s, cell: cell}
}

// multiSink fans events out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one, dropping nils. It returns nil when no
// usable sink remains, preserving the nil-means-off convention.
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Counters is an engine-counter rollup: one replication's snapshot (from
// san.Instance.Stats or fastsim.Engine.Stats) or the sum over a grid
// cell's replications. Events and Firings are engine-agnostic — kernel
// events and activity completions on the SAN engine, sampled ticks and
// job-flow completions on the fast engine; the remaining fields are
// engine-specific and stay zero on the engine that lacks them.
type Counters struct {
	Replications uint64 `json:"replications,omitempty"`
	// Events is the number of kernel events fired (SAN) or ticks sampled
	// (fast engine).
	Events uint64 `json:"events"`
	// Firings is the number of activity completions, timed plus
	// instantaneous (SAN), or dispatched jobs plus barrier releases (fast).
	Firings      uint64 `json:"firings"`
	TimedFirings uint64 `json:"timed_firings,omitempty"`
	InstFirings  uint64 `json:"inst_firings,omitempty"`
	// Aborts counts timed activations cancelled by a disabling marking
	// change (the race-enabled policy's abort path).
	Aborts uint64 `json:"aborts,omitempty"`
	// Scheduled / Cancelled are the kernel's event-list operations.
	Scheduled uint64 `json:"scheduled,omitempty"`
	Cancelled uint64 `json:"cancelled,omitempty"`
	// StabilizeIters is the total number of instantaneous firings across
	// all stabilizations; MaxStabilizeDepth the deepest single
	// stabilization.
	StabilizeIters    uint64 `json:"stabilize_iters,omitempty"`
	MaxStabilizeDepth uint64 `json:"max_stabilize_depth,omitempty"`
	// FaultInjects / FaultRecovers count fault events injected into and
	// recovered by the replications (internal/faults campaigns); zero when
	// no fault plan is configured.
	FaultInjects  uint64 `json:"fault_injects,omitempty"`
	FaultRecovers uint64 `json:"fault_recovers,omitempty"`
	// Dispatches / Migrations count the cluster orchestrator's VM
	// placements and completed migrations (internal/cluster); zero on
	// single-host runs.
	Dispatches uint64 `json:"dispatches,omitempty"`
	Migrations uint64 `json:"migrations,omitempty"`
	// Windows / ParallelWindows count the cluster orchestrator's windows
	// stepped and those stepped on more than one worker; zero on
	// single-host runs. Windows rises while the orchestrator has a sink,
	// which makes every cluster event end a window. ParallelWindows
	// follows GOMAXPROCS as well as the seed.
	Windows         uint64 `json:"windows,omitempty"`
	ParallelWindows uint64 `json:"parallel_windows,omitempty"`
	// WallNS is measured wall time; EventsPerSec is Events over WallNS.
	WallNS       int64   `json:"wall_ns,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// FillRate derives EventsPerSec from Events and WallNS (no-op when either
// is zero).
func (c *Counters) FillRate() {
	if c.WallNS > 0 && c.Events > 0 {
		c.EventsPerSec = float64(c.Events) / (float64(c.WallNS) / 1e9)
	}
}

// Accumulator sums Counters across concurrently running replications.
// The zero value is ready to use; Add may be called from any number of
// goroutines (the replication batch workers).
type Accumulator struct {
	reps, events, firings atomic.Uint64
	timed, inst, aborts   atomic.Uint64
	scheduled, cancelled  atomic.Uint64
	stabIters, maxStab    atomic.Uint64
	faultInj, faultRec    atomic.Uint64
	dispatches, migrates  atomic.Uint64
	windows, parWindows   atomic.Uint64
	wallNS                atomic.Int64
}

// Add folds one replication's counters into the rollup.
func (a *Accumulator) Add(c Counters) {
	a.reps.Add(1)
	a.events.Add(c.Events)
	a.firings.Add(c.Firings)
	a.timed.Add(c.TimedFirings)
	a.inst.Add(c.InstFirings)
	a.aborts.Add(c.Aborts)
	a.scheduled.Add(c.Scheduled)
	a.cancelled.Add(c.Cancelled)
	a.stabIters.Add(c.StabilizeIters)
	a.faultInj.Add(c.FaultInjects)
	a.faultRec.Add(c.FaultRecovers)
	a.dispatches.Add(c.Dispatches)
	a.migrates.Add(c.Migrations)
	a.windows.Add(c.Windows)
	a.parWindows.Add(c.ParallelWindows)
	for {
		cur := a.maxStab.Load()
		if c.MaxStabilizeDepth <= cur || a.maxStab.CompareAndSwap(cur, c.MaxStabilizeDepth) {
			break
		}
	}
	a.wallNS.Add(c.WallNS)
}

// Counters returns the current rollup. EventsPerSec is left zero; callers
// that know the enclosing wall time (a grid cell's elapsed span) set
// WallNS and call FillRate.
func (a *Accumulator) Counters() Counters {
	return Counters{
		Replications:      a.reps.Load(),
		Events:            a.events.Load(),
		Firings:           a.firings.Load(),
		TimedFirings:      a.timed.Load(),
		InstFirings:       a.inst.Load(),
		Aborts:            a.aborts.Load(),
		Scheduled:         a.scheduled.Load(),
		Cancelled:         a.cancelled.Load(),
		StabilizeIters:    a.stabIters.Load(),
		MaxStabilizeDepth: a.maxStab.Load(),
		FaultInjects:      a.faultInj.Load(),
		FaultRecovers:     a.faultRec.Load(),
		Dispatches:        a.dispatches.Load(),
		Migrations:        a.migrates.Load(),
		Windows:           a.windows.Load(),
		ParallelWindows:   a.parWindows.Load(),
		WallNS:            a.wallNS.Load(),
	}
}

// processStart anchors the monotonic clock handed to simulation packages.
var processStart = time.Now()

// Clock returns monotonic wall time since process start. Simulation
// packages (inside the determinism lint's wall-clock scope) receive this
// function as an injected dependency — san.Instance.SetClock — so engine
// Stats can report wall time without those packages reading the clock
// themselves.
func Clock() time.Duration { return time.Since(processStart) }
