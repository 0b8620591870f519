package san

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"vcpusim/internal/des"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
)

// rateState is one rate reward's execution state, packed for the
// observation loop that runs after every timed completion: the time
// integral of the reward up to the last observation, the value it has held
// since, and the reward function.
type rateState struct {
	integral float64
	val      float64
	fn       func() float64
}

// Instance is the mutable half of the compile-once executive: everything a
// replication changes — the kernel and its reusable completion events, the
// RNG stream, reward accumulators, dirty-candidate bitsets, and scratch
// buffers. An Instance is armed by Reset(seed), which restores the model's
// recorded initial marking and rewinds every accumulator, and consumed by
// one Run*; Reset again to run the next replication. Resetting is cheap
// (no allocation) and bit-identical to building a fresh Runner with the
// same seed.
//
// Instances of the same Program share the model's marking; never run two
// concurrently. For parallel replications give each worker its own
// Program + Instance.
type Instance struct {
	prog   *Program
	kernel *des.Kernel
	src    *rng.Source

	// Aliases of the program's immutable tables, copied here so the hot
	// path dereferences one struct.
	timed      []*actPlan
	instants   []*actPlan
	extBase    int
	touchMasks []uint64
	touchOps   [][]touchOp
	mask111    bool
	mask4      bool

	// events holds the reusable completion event of each timed activity,
	// parallel to timed (one outstanding activation per activity under the
	// race-enabled policy), scheduled and cancelled without allocation.
	events []*des.Event

	impulses []float64
	firings  uint64
	failed   error

	// Engine counters (see Stats): always-on plain increments, reset with
	// the rest of the per-replication state. actFirings is nil unless
	// EnableActivityStats was called; clock is nil unless SetClock
	// injected one (only obs code reads the wall clock directly).
	instFirings uint64
	aborts      uint64
	stabIters   uint64
	stabMax     uint64
	wallTime    time.Duration
	actFirings  []uint64
	clock       func() time.Duration
	// failFn is in.fail bound once at construction: binding a method
	// value allocates, and Reset must not.
	failFn func(error)
	// ready is set by Reset and cleared when a run starts: an instance
	// must be reset before every replication.
	ready bool

	// dirtyArena is the contiguous backing array of the three dirty
	// bitsets — candTimed's words, then candInst's, then rateDirty's — so
	// a place touch ORs into one small block of adjacent memory.
	dirtyArena []uint64

	// candTimed / candInst are the activities whose enabling must be
	// reconsidered (dirty since last reconciliation); the program's
	// wildcard sets are folded into them on every pass. Both are
	// subslices of dirtyArena.
	candTimed, candInst bitset

	// stabRing records the instants-table indexes of the most recent
	// instantaneous firings once a stabilization approaches the livelock
	// cap, so the livelock error can name the cycling activities. Far
	// from the cap the recording branch is never taken.
	stabRing [stabRingLen]int32

	// disabledTimed / disabledInst are activities administratively disabled
	// via SetActivityEnabled: treated as never enabled regardless of their
	// predicates. Deliberately NOT cleared by Reset — disabling configures
	// the instance (e.g. arming a fault campaign's Disabled specs once per
	// worker) and persists across replications. Allocated lazily on the
	// first SetActivityEnabled call; anyDisabled gates the hot paths so
	// the default all-enabled case pays one boolean test and no storage.
	disabledTimed, disabledInst bitset
	anyDisabled                 bool

	// tracking is true while gate code runs inside fire; only then do the
	// model's touch hooks record dirt.
	tracking bool

	// preFire / postFire, when set, bracket every firing's gate execution
	// (before the arcs' marking steps, after the chosen case's output
	// gate).
	// They exist for verification instrumentation — the structural
	// conformance check snapshots the marking around each firing — and
	// cost one nil test per firing when unset.
	preFire, postFire func(*Activity)

	// flight, when set, records every firing into a bounded ring so a
	// model error, livelock, or cancelled replication can dump the
	// moments leading up to it (the generalization of stabRing, which
	// only covers instantaneous livelocks). One nil test per firing when
	// unset; Reset rewinds it so dumps never leak a prior replication.
	flight *obs.FlightRecorder

	// caseWeights is the chooseCase scratch buffer (max case count).
	caseWeights []float64

	// rateSt packs each rate reward's hot-path state — integral, cached
	// value, reward function — into one struct so an observation touches a
	// single cache line. rateDirty (a subslice of dirtyArena) marks rewards
	// whose watched places or activities changed since the last
	// observation, and after them the projections whose place was touched;
	// the program's rateWildMask is re-copied into it after every pass.
	rateSt    []rateState
	rateDirty bitset
	// rateT is the reward clock: every rate reward is observed at the same
	// instants, so one last-observation time serves them all.
	rateT float64
	// projKeys caches each projection's key as of the last observation
	// that evaluated it.
	projKeys []uint64

	// Transient-removal state: rewards are measured over
	// [warmup, horizon] only. horizon is set by BeginRun and read by the
	// step primitives (HasPendingEvents) and EndRun.
	warmup       float64
	horizon      float64
	warmSnapped  bool
	warmIntegral []float64
	warmImpulses []float64
}

// NewInstance allocates the mutable state for running the program: a
// kernel, reusable completion events, accumulators, and scratch buffers.
// The instance is not armed; call Reset(seed) before the first run.
func (p *Program) NewInstance() (*Instance, error) {
	m := p.model
	in := &Instance{
		prog:       p,
		kernel:     des.NewKernel(),
		src:        rng.New(0),
		timed:      p.timed,
		instants:   p.instants,
		extBase:    p.extBase,
		touchMasks: p.touchMasks,
		touchOps:   p.touchOps,
		mask111:    p.mask111,
		mask4:      p.mask4,
		impulses:   make([]float64, len(m.impulses)),
		rateSt:     make([]rateState, len(m.rates)),
		projKeys:   make([]uint64, len(p.projs)),
	}
	// One contiguous arena for the three dirty sets: the program's touch
	// masks and ops are compiled against this layout (candTimed's words at
	// offset 0, candInst's at wT, rateDirty's at wT+wI).
	in.dirtyArena = make([]uint64, p.wT+p.wI+p.wR)
	in.candTimed = bitset(in.dirtyArena[:p.wT])
	in.candInst = bitset(in.dirtyArena[p.wT : p.wT+p.wI])
	in.rateDirty = bitset(in.dirtyArena[p.wT+p.wI:])
	in.failFn = in.fail
	if p.maxCases > 0 {
		in.caseWeights = make([]float64, p.maxCases)
	}
	for i := range m.rates {
		in.rateSt[i].fn = m.rates[i].Fn
	}
	in.warmIntegral = make([]float64, len(in.rateSt))
	in.warmImpulses = make([]float64, len(in.impulses))
	in.events = make([]*des.Event, len(p.timed))
	in.kernel.Reserve(len(p.timed))
	for i, ap := range p.timed {
		i := i
		ev, err := in.kernel.NewEvent(ap.act.priority, ap.act.name, func() { in.complete(i) })
		if err != nil {
			return nil, fmt.Errorf("san: activity %s: %w", ap.act.name, err)
		}
		in.events[i] = ev
	}
	return in, nil
}

// Program returns the compiled program the instance executes.
func (in *Instance) Program() *Program { return in.prog }

// Reset arms the instance for one replication seeded with seed: the model's
// marking returns to its recorded initial state (token counts, extended
// places, completion counters), runtime modeling errors recorded by a
// previous replication are cleared, the kernel rewinds to time zero with an
// empty event list and a restarted event-sequence counter, and every reward
// accumulator and candidate set is re-initialized. After Reset the instance
// behaves bit-identically to a freshly built Runner with the same seed.
// Reset itself never allocates; extended-place init functions run and may.
func (in *Instance) Reset(seed uint64) {
	m := in.prog.model
	m.reset()
	// Runtime errors from a prior replication would otherwise fail this
	// one's final model check; the program compiled clean, so everything
	// recorded since is per-replication state.
	m.errs = m.errs[:0]
	m.run = in
	m.notify = in.failFn

	in.kernel.Reset()
	in.src.Reseed(seed)
	for i := range in.impulses {
		in.impulses[i] = 0
	}
	in.firings = 0
	in.failed = nil
	in.ready = true
	in.tracking = false
	if in.flight != nil {
		in.flight.Reset()
	}

	in.instFirings = 0
	in.aborts = 0
	in.stabIters = 0
	in.stabMax = 0
	in.wallTime = 0
	for i := range in.actFirings {
		in.actFirings[i] = 0
	}

	// Everything is a candidate for the initial stabilization/activation,
	// and every rate reward is evaluated at the first observation.
	in.candTimed.zero()
	in.candTimed.setAll(len(in.timed))
	in.candInst.zero()
	in.candInst.setAll(len(in.instants))
	in.rateDirty.zero()
	in.rateDirty.setAll(len(in.rateSt) + len(in.projKeys))

	for i := range in.rateSt {
		in.rateSt[i].integral = 0
		in.rateSt[i].val = 0
	}
	in.rateT = 0
	in.warmup = 0
	in.horizon = 0
	in.warmSnapped = false
	for i := range in.warmIntegral {
		in.warmIntegral[i] = 0
	}
	for i := range in.warmImpulses {
		in.warmImpulses[i] = 0
	}
}

// SetActivityEnabled administratively enables or disables an activity by
// its fully qualified name. A disabled activity is treated as never
// enabled: a scheduled activation is aborted at the next reconciliation
// and an instantaneous activity never fires. The setting persists across
// Reset, so configuring an instance once covers every replication it
// runs; it is the public injection surface internal/faults uses to honor
// a plan's Disabled flags without touching private executive state.
func (in *Instance) SetActivityEnabled(name string, enabled bool) error {
	a, err := in.prog.Activity(name)
	if err != nil {
		return err
	}
	return in.SetEnabled(a, enabled)
}

// SetEnabled is SetActivityEnabled for an activity resolved once with
// Program.Activity, so a caller that flips the same activity again and
// again pays no name lookup. An ActivityRef resolved in another program
// is an error.
func (in *Instance) SetEnabled(a ActivityRef, enabled bool) error {
	if a.prog != in.prog {
		return fmt.Errorf("san: activity %q is not in the program of model %q", a.name, in.prog.model.Name())
	}
	ref := a.ref
	if in.disabledTimed == nil {
		in.disabledTimed = newBitset(len(in.timed))
		in.disabledInst = newBitset(len(in.instants))
	}
	set, cand := in.disabledInst, in.candInst
	if ref.timed {
		set, cand = in.disabledTimed, in.candTimed
	}
	if enabled {
		set.clear(ref.idx)
	} else {
		set.set(ref.idx)
	}
	// Reconsider the activity so a pending activation is cancelled (or a
	// newly re-enabled one sampled) at the next reconciliation pass.
	cand.set(ref.idx)
	in.anyDisabled = in.disabledTimed.any() || in.disabledInst.any()
	return nil
}

// DisabledActivityNames returns the fully qualified names of every
// administratively disabled activity, in firing-table order (timed first).
// Static analysis uses it to avoid reporting deliberately disabled
// activities as dead.
func (in *Instance) DisabledActivityNames() []string {
	if !in.anyDisabled {
		return nil
	}
	var names []string
	for i := in.disabledTimed.next(0); i >= 0; i = in.disabledTimed.next(i + 1) {
		names = append(names, in.timed[i].act.name)
	}
	for i := in.disabledInst.next(0); i >= 0; i = in.disabledInst.next(i + 1) {
		names = append(names, in.instants[i].act.name)
	}
	return names
}

// SetFlightRecorder attaches (or with nil detaches) a flight recorder:
// every activity firing is recorded into its bounded ring, and any model
// error, livelock, or cancellation dumps the retained entries into the
// returned error. The executive registers the firing labeler so dumps
// name activities; other layers (the core scheduler, fault injection)
// record their own entry kinds into the same ring, giving one merged
// recent-history view. The recorder persists across Reset (its ring is
// rewound, not detached), so a pooled worker configures it once.
func (in *Instance) SetFlightRecorder(fr *obs.FlightRecorder) {
	in.flight = fr
	if fr == nil {
		return
	}
	fr.SetLabel(obs.FlightFiring, func(code int32, arg int64) string {
		i := int(code)
		name := fmt.Sprintf("activity#%d", i)
		switch {
		case i >= 0 && i < len(in.timed):
			name = in.timed[i].act.name
		case i >= len(in.timed) && i-len(in.timed) < len(in.instants):
			name = in.instants[i-len(in.timed)].act.name
		}
		return fmt.Sprintf("fire %s (firing #%d)", name, arg)
	})
}

// Now returns the instance's current virtual time. Probes and timelines
// read it from inside fire hooks; between runs it is the time the last
// replication ended on.
func (in *Instance) Now() float64 { return in.kernel.Now() }

// SetFireHooks installs (or with nils removes) the verification hooks
// bracketing every firing: pre runs before the activity's input-gate
// functions, post after its case output gate completed without error. The
// hooks run outside dirty tracking only in the sense that their own place
// reads should use Peek/Tokens; they are for instrumentation (the
// structural conformance check), not modeling.
func (in *Instance) SetFireHooks(pre, post func(a *Activity)) {
	in.preFire, in.postFire = pre, post
}

// touchID marks a place dirty (token places use their id, extended places
// extBase+id): every activity reading it becomes an enabling-
// reconsideration candidate and every rate reward watching it is
// re-evaluated at the next observation. Closure callers gate on
// in.tracking (only gate execution records dirt); compiled firing steps
// touch directly. Models up to 64 timed activities, 64 instantaneous
// activities, and 64 rate rewards take the three-adjacent-word fast path
// into the dirty arena; a four-word arena (one set spilling into a second
// word) takes the analogous dense path, and larger ones apply the place's
// sparse op list.
func (in *Instance) touchID(id int) {
	if in.mask111 {
		m := in.touchMasks[id*3:]
		ar := in.dirtyArena
		_, _ = m[2], ar[2]
		ar[0] |= m[0]
		ar[1] |= m[1]
		ar[2] |= m[2]
		return
	}
	in.touchWide(id)
}

func (in *Instance) touchWide(id int) {
	ar := in.dirtyArena
	if in.mask4 {
		m := in.touchMasks[id*4:]
		_, _ = m[3], ar[3]
		ar[0] |= m[0]
		ar[1] |= m[1]
		ar[2] |= m[2]
		ar[3] |= m[3]
		return
	}
	for _, op := range in.touchOps[id] {
		ar[op.word] |= op.mask
	}
}

// Run simulates the model over [0, horizon] and returns the measured
// rewards. It returns an error if the model livelocks or a modeling error
// (e.g. negative marking) is recorded during execution.
func (in *Instance) Run(horizon float64) (Results, error) {
	return in.RunInterval(0, horizon)
}

// RunInterval simulates over [0, horizon] but measures rewards over
// [warmup, horizon] only, discarding the initial transient (rate rewards
// are time-averaged over the measurement window; impulse rewards count
// completions inside it).
func (in *Instance) RunInterval(warmup, horizon float64) (Results, error) {
	return in.RunIntervalContext(context.Background(), warmup, horizon)
}

// RunIntervalContext is RunInterval with cancellation: ctx is checked
// periodically (every few thousand events) so cancelling an experiment
// interrupts a long replication instead of waiting for the horizon. It is
// a thin loop over the step primitives — BeginRun, HasPendingEvents,
// ProcessNextEvent, EndRun — and bit-identical to the pre-decomposition
// monolithic loop.
func (in *Instance) RunIntervalContext(ctx context.Context, warmup, horizon float64) (Results, error) {
	if in.clock != nil {
		start := in.clock()
		defer func() { in.wallTime += in.clock() - start }()
	}
	if err := in.BeginRun(warmup, horizon); err != nil {
		return Results{}, err
	}
	untilCtxCheck := ctxCheckInterval
	for in.HasPendingEvents() {
		in.ProcessNextEvent()
		if untilCtxCheck--; untilCtxCheck <= 0 {
			untilCtxCheck = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return Results{}, in.withFlight(fmt.Errorf("san: replication cancelled at t=%g: %w", in.kernel.Now(), err))
			}
		}
	}
	return in.EndRun()
}

// BeginRun starts one replication measured over [warmup, horizon): it
// validates the window, consumes the Reset arming, and performs the
// initial stabilization, activation, and rate observation at t=0. After
// BeginRun the caller drives the event loop itself through
// HasPendingEvents / PeekNextEventTime / ProcessNextEvent (optionally
// interleaving externally timed work via Exec) and finishes with EndRun.
// The Run* methods are thin loops over exactly these primitives; an
// external driver stepping every event produces bit-identical Results.
func (in *Instance) BeginRun(warmup, horizon float64) error {
	if horizon <= 0 {
		return fmt.Errorf("san: non-positive horizon %g", horizon)
	}
	if warmup < 0 || warmup >= horizon {
		return fmt.Errorf("san: warmup %g outside [0, horizon %g)", warmup, horizon)
	}
	if !in.ready {
		return fmt.Errorf("san: instance already used or not reset (model %q would simulate from a stale marking; call Reset with a fresh seed before each replication)", in.prog.model.Name())
	}
	in.ready = false
	in.warmup = warmup
	in.horizon = horizon
	in.warmSnapped = warmup == 0
	// Initial stabilization and activation.
	if err := in.stabilize(); err != nil {
		return err
	}
	in.refresh()
	in.observeRates()
	return in.failed
}

// HasPendingEvents reports whether the run started by BeginRun has more
// events to process: the replication has not failed and the earliest
// pending event lies before the horizon. The measurement window is
// half-open — events scheduled at exactly the horizon do not fire (they
// would contribute zero measure to rate rewards but would skew impulse
// counts) — and an empty event list answers false (NextTime is +Inf).
func (in *Instance) HasPendingEvents() bool {
	return in.failed == nil && in.kernel.NextTime() < in.horizon
}

// PeekNextEventTime returns the virtual time of the earliest pending
// event without firing it, or +Inf when the event list is empty. A
// multi-host orchestrator uses it to step a shard up to a time bound.
func (in *Instance) PeekNextEventTime() float64 {
	return in.kernel.NextTime()
}

// ProcessNextEvent fires the single earliest pending event, first taking
// the warmup snapshot if that event crosses the measurement-window start.
// It returns the replication's failure, if any (also surfaced by EndRun);
// callers looping on HasPendingEvents may ignore the return. Calling it
// when HasPendingEvents is false fires an event past the horizon and
// corrupts the measurement window — external drivers must check first.
func (in *Instance) ProcessNextEvent() error {
	if !in.warmSnapped && in.kernel.NextTime() >= in.warmup {
		// Snapshot before the first in-window event fires, so its
		// impulses and marking changes land inside the window.
		in.snapshotWarmup()
	}
	in.kernel.Step()
	return in.failed
}

// Exec runs externally timed work against the model at virtual time t:
// the clock advances to t (which must not step over a pending event —
// drive those through ProcessNextEvent first), fn mutates the marking
// with dirty tracking on, and the executive then re-stabilizes,
// reconciles timed activations, and observes rate rewards — exactly the
// sequence a timed completion at t performs. It is the cluster
// orchestrator's injection point for dispatch and migration events. fn
// must leave the marking valid; errors it records fail the replication.
func (in *Instance) Exec(t float64, fn func()) error {
	if in.failed != nil {
		return in.failed
	}
	if !in.warmSnapped && t >= in.warmup {
		in.snapshotWarmup()
	}
	if err := in.kernel.AdvanceTo(t); err != nil {
		in.fail(err)
		return in.failed
	}
	in.tracking = true
	fn()
	in.tracking = false
	if in.failed != nil {
		return in.failed
	}
	if err := in.stabilize(); err != nil {
		return err
	}
	in.refresh()
	in.observeRates()
	return in.failed
}

// EndRun finishes the replication started by BeginRun and returns the
// rewards measured over [warmup, horizon): any execution failure or
// recorded model error surfaces here, rate rewards are time-averaged
// over the window, and impulse rewards count completions inside it.
func (in *Instance) EndRun() (Results, error) {
	if in.failed != nil {
		return Results{}, in.failed
	}
	if err := in.prog.model.Err(); err != nil {
		return Results{}, in.withFlight(fmt.Errorf("san: model error during run: %w", err))
	}
	if !in.warmSnapped {
		// The run ended before any event crossed the warmup point; the
		// signal was constant since the last observation, so snapshot now.
		in.snapshotWarmup()
	}
	m := in.prog.model
	res := Results{
		Warmup:   in.warmup,
		Horizon:  in.horizon,
		Rates:    make(map[string]float64, len(m.rates)),
		Impulses: make(map[string]float64, len(m.impulses)),
		Events:   in.kernel.Fired(),
		Firings:  in.firings,
	}
	window := in.horizon - in.warmup
	for i, rr := range m.rates {
		res.Rates[rr.Name] = (in.integralAt(i, in.horizon) - in.warmIntegral[i]) / window
	}
	for i, ir := range m.impulses {
		res.Impulses[ir.Name] = in.impulses[i] - in.warmImpulses[i]
	}
	return res, nil
}

// snapshotWarmup records the reward accumulators' state at the warmup
// point. It must run before any observation past the warmup time.
func (in *Instance) snapshotWarmup() {
	for i := range in.rateSt {
		in.warmIntegral[i] = in.integralAt(i, in.warmup)
	}
	copy(in.warmImpulses, in.impulses)
	in.warmSnapped = true
}

// integralAt returns rate reward i's time integral over [0, t], for t at or
// after the last observation: the reward has held its value since then.
func (in *Instance) integralAt(i int, t float64) float64 {
	s := &in.rateSt[i]
	return s.integral + s.val*(t-in.rateT)
}

// fire completes an activity: its counted arcs' marking steps apply first,
// in creation order, then one case is selected by weight and its output
// gate runs. Once a fatal error is recorded the remaining steps and gate
// stages are skipped, so a failed replication never mutates the marking
// past the error point. The steps are applied directly, with the negative
// and capacity checks and dirty touches of Place.Add, unless an arc leaves
// the model (actPlan.foreign); the cases run as closures with dirty
// tracking on.
func (in *Instance) fire(ap *actPlan) {
	a := ap.act
	in.firings++
	if in.preFire != nil {
		in.preFire(a)
	}
	if ap.foreign {
		in.tracking = true
		for _, st := range a.arcs {
			st.p.Add(st.delta)
			if in.failed != nil {
				break
			}
		}
		in.tracking = false
		if in.failed != nil {
			return
		}
	} else if ft := ap.fireTouch; ft != nil {
		// Fused-touch path (narrow arenas): one OR marks every place the
		// plan touches plus its rate-dirty bits, and the steps skip the
		// per-place touches. Marking before the steps keeps the dirty sets
		// a superset of the per-step path on the error exit, which a failed
		// replication never reads.
		ar := in.dirtyArena
		for i, w := range ft {
			ar[i] |= w
		}
		for _, st := range a.arcs {
			in.applyArcStep(st)
			if in.failed != nil {
				return
			}
		}
	} else {
		for _, st := range a.arcs {
			in.applyArcStep(st)
			in.touchID(int(st.p.id))
			if in.failed != nil {
				return
			}
		}
	}
	// A case-free plan's only case is the implicit empty one: nothing to
	// run.
	if !ap.caseFree {
		in.tracking = true
		c := ap.case1
		if c == nil {
			c = in.chooseCase(a)
			if in.failed != nil {
				in.tracking = false
				return
			}
		}
		c.Output()
		in.tracking = false
		if in.failed != nil {
			return
		}
	}
	if in.postFire != nil {
		in.postFire(a)
	}
	for _, i := range ap.impulseIdx {
		in.impulses[i] += in.prog.model.impulses[i].Fn()
	}
	if ap.fireTouch == nil {
		for _, i := range ap.rateIdx {
			in.rateDirty.set(int(i))
		}
	}
}

// applyArcStep applies one counted arc's marking change, mirroring
// Place.SetTokens exactly: negative markings are recorded as modeling
// errors and clamped to zero, and capacity overflows are recorded. It does
// not mark the place's dependents dirty: fire either touches the place
// after the step or has already ORed the plan's whole touch set.
func (in *Instance) applyArcStep(st arcStep) {
	p := st.p
	n := p.tokens + st.delta
	if n < 0 {
		p.model.addErr(fmt.Errorf("san: place %s marked negative (%d)", p.name, n))
		n = 0
	}
	if p.capacity > 0 && n > p.capacity {
		p.model.addErr(fmt.Errorf("san: place %s marked %d, above its declared capacity %d", p.name, n, p.capacity))
	}
	p.tokens = n
}

// sampleDelay draws an activity's completion delay, through compiled
// arithmetic for the common stationary distributions (identical formulas
// and RNG draws to Distribution.Sample) and through the activity's delay
// function otherwise.
func (in *Instance) sampleDelay(ap *actPlan) float64 {
	switch ap.delayKind {
	case delayDet:
		return ap.delayA
	case delayExp:
		return in.src.ExpInv() / ap.delayA
	case delayUniform:
		return ap.delayA + (ap.delayB-ap.delayA)*in.src.Float64()
	default:
		return ap.act.delay(in.src)
	}
}

// chooseCase selects one of an activity's several cases by normalized
// weight.
func (in *Instance) chooseCase(a *Activity) *Case {
	total := 0.0
	weights := in.caseWeights[:len(a.cases)]
	for i := range a.cases {
		w := a.cases[i].Weight()
		if w < 0 {
			in.fail(fmt.Errorf("san: negative case weight on %s", a.name))
			w = 0
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		in.fail(fmt.Errorf("san: all case weights zero on %s", a.name))
		return &a.cases[0]
	}
	u := in.src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return &a.cases[i]
		}
	}
	return &a.cases[len(a.cases)-1]
}

// stabilize fires enabled instantaneous activities in (priority, definition)
// order until none is enabled. Only candidates — activities whose watched
// places were dirtied since they were last found disabled, plus the
// wildcard set — are examined: an instantaneous activity that was disabled
// at the end of the previous stabilization stays disabled until some
// firing touches a place it reads.
//
// The loop always examines the lowest set candidate. When it reaches
// candidate i, every candidate below i has already been cleared, and only
// a firing sets bits again: after a disabled candidate it walks on from
// i+1, and after a firing it folds the wildcard set back in and takes the
// lowest candidate the firing left set. That visits exactly the
// candidates, in exactly the order, of a scan restarted from priority zero
// after every firing.
func (in *Instance) stabilize() error {
	n := 0 // completed instantaneous firings in this stabilization
	cand, instants := in.candInst, in.instants
	wildAny := in.prog.wildInstAny
	if wildAny {
		cand.or(in.prog.wildInst)
	}
	for i := cand.next(0); i >= 0; {
		ap := instants[i]
		cand.clear(i)
		if in.anyDisabled && in.disabledInst.has(i) {
			i = cand.next(i + 1)
			continue
		}
		var enabled bool
		if p := ap.enabP; p != nil {
			enabled = p.tokens >= ap.enabN
		} else {
			enabled = ap.act.enabled()
		}
		if !enabled {
			i = cand.next(i + 1)
			continue
		}
		if in.flight != nil {
			in.flight.Record(in.kernel.Now(), obs.FlightFiring, int32(len(in.timed)+i), int64(in.firings))
		}
		in.fire(ap)
		in.instFirings++
		if in.actFirings != nil {
			in.actFirings[len(in.timed)+i]++
		}
		// The firing may have left the activity enabled (its own reads
		// untouched): keep it a candidate so it is examined again, unless
		// its lone input arc settles the question now.
		in.retest(cand, ap, i)
		if in.failed != nil {
			in.noteStabDepth(n)
			return in.failed
		}
		n++
		if n+stabRingLen > stabilizeCap {
			// Approaching the livelock cap: record the firing so the
			// error can name the cycle. Never taken in healthy models.
			in.stabRing[n%stabRingLen] = int32(i)
			if n > stabilizeCap {
				err := in.livelockErr(n)
				in.fail(err)
				return err
			}
		}
		if wildAny {
			cand.or(in.prog.wildInst)
		}
		i = cand.next(0)
	}
	in.noteStabDepth(n)
	return nil
}

// retest sets or clears just-fired activity i's bit in cand. A plan whose
// whole enabling test is one in-model input arc (enabP set, not foreign)
// is re-tested inline: its enabling changes only when enabP changes, and
// every in-model write to enabP touches it, setting the bit again. Any
// other plan stays a candidate. stabilize and refresh still fold the
// wildcards back in.
func (in *Instance) retest(cand bitset, ap *actPlan, i int) {
	if p := ap.enabP; p != nil && !ap.foreign && p.tokens < ap.enabN {
		cand.clear(i)
		return
	}
	cand.set(i)
}

// livelockErr builds the stabilization-cap error, naming the activities the
// last stabRingLen firings cycled through (in order of first appearance in
// the recorded window) so the report points at the cycle instead of only
// its depth.
func (in *Instance) livelockErr(n int) error {
	var names []string
	seen := newBitset(len(in.instants))
	for k := n - stabRingLen + 1; k <= n; k++ {
		idx := int(in.stabRing[((k%stabRingLen)+stabRingLen)%stabRingLen])
		if idx < 0 || idx >= len(in.instants) || seen.has(idx) {
			continue
		}
		seen.set(idx)
		names = append(names, in.instants[idx].act.name)
	}
	return fmt.Errorf("san: instantaneous livelock in model %q at t=%g: last %d firings cycle through %s",
		in.prog.model.Name(), in.kernel.Now(), stabRingLen, strings.Join(names, ", "))
}

// noteStabDepth records one stabilization's firing count.
func (in *Instance) noteStabDepth(n int) {
	d := uint64(n)
	in.stabIters += d
	if d > in.stabMax {
		in.stabMax = d
	}
}

// refresh reconciles timed-activity activations with the current marking:
// enabled-and-unscheduled activities get a sampled completion; scheduled-
// but-disabled ones are aborted (race-enabled policy). Only candidate
// activities are examined, in definition order — the same order a full
// scan visits them — so the sequence of RNG delay draws is bit-identical
// to the pre-index engine's.
func (in *Instance) refresh() {
	if in.prog.wildTimedAny {
		in.candTimed.or(in.prog.wildTimed)
	}
	// The loop body never touches candTimed (scheduling and cancellation
	// are kernel-only), so the set is cleared wholesale afterwards instead
	// of bit by bit; the error returns skip the clear, but a failed
	// replication never refreshes again.
	for i := in.candTimed.next(0); i >= 0; i = in.candTimed.next(i + 1) {
		ap := in.timed[i]
		ev := in.events[i]
		scheduled := ev.Pending()
		var enabled bool
		if p := ap.enabP; p != nil {
			enabled = p.tokens >= ap.enabN
		} else {
			enabled = ap.act.enabled()
		}
		if in.anyDisabled && in.disabledTimed.has(i) {
			enabled = false
		}
		switch {
		case enabled && !scheduled:
			delay := in.sampleDelay(ap)
			if delay < 0 || math.IsNaN(delay) {
				in.fail(fmt.Errorf("san: activity %s sampled invalid delay %g", ap.act.name, delay))
				return
			}
			if err := in.kernel.ScheduleEventAfter(ev, delay); err != nil {
				in.fail(err)
				return
			}
		case !enabled && scheduled:
			in.kernel.Cancel(ev)
			in.aborts++
		}
	}
	in.candTimed.zero()
}

// complete is the kernel handler for a timed-activity completion.
func (in *Instance) complete(i int) {
	ap := in.timed[i]
	if in.flight != nil {
		in.flight.Record(in.kernel.Now(), obs.FlightFiring, int32(i), int64(in.firings))
	}
	in.fire(ap)
	if in.actFirings != nil {
		in.actFirings[i]++
	}
	// The completed activity is unscheduled and possibly still enabled:
	// reconsider it regardless of what the firing touched. One that the
	// re-test finds disabled is unscheduled and disabled, which refresh
	// would leave alone.
	in.retest(in.candTimed, ap, i)
	if err := in.stabilize(); err != nil {
		return
	}
	in.refresh()
	in.observeRates()
}

// observeRates records the current value of every rate reward at the
// current time. Only rewards whose watched places or activities were
// dirtied since the last observation are re-evaluated, and a reward that
// refs a projection only when a touch of its place changed the key; the
// rest keep their cached value, which the skipped evaluation would have
// returned, so the accumulated integral is bit-identical to evaluating every
// reward at every event. The integral update is the one float64 expression
// value*(now-last) for every reward, against the shared reward clock.
func (in *Instance) observeRates() {
	now := in.kernel.Now()
	dt := now - in.rateT
	in.rateT = now
	st := in.rateSt
	dirty := in.rateDirty
	wild := in.prog.rateWildMask
	if len(in.projKeys) > 0 {
		in.checkProjections()
	}
	if len(dirty) == 1 {
		// ≤64 rewards and projections: hoist the dirty word out of the loop.
		d := dirty[0]
		for i := range st {
			s := &st[i]
			s.integral += s.val * dt
			if d&(1<<uint(i)) != 0 {
				s.val = s.fn()
			}
		}
		dirty[0] = wild[0]
		return
	}
	for i := range st {
		s := &st[i]
		s.integral += s.val * dt
		if dirty.has(i) {
			s.val = s.fn()
		}
	}
	// Reset to the wildcard baseline: rewards without usable Refs stay
	// dirty and are re-evaluated at every observation.
	copy(dirty, wild)
}

// checkProjections re-evaluates the key of every projection whose place was
// touched since the last observation, and dirties the rewards behind each
// key that changed. The projection bits follow the rewards' in rateDirty.
func (in *Instance) checkProjections() {
	dirty := in.rateDirty
	p := in.prog
	for b := dirty.next(p.nRates); b >= 0; b = dirty.next(b + 1) {
		j := b - p.nRates
		if k := p.projs[j].key(p.projs[j].val); k != in.projKeys[j] {
			in.projKeys[j] = k
			dirty.or(p.projRewards[j*p.wR : (j+1)*p.wR])
		}
	}
}

// fail records a fatal execution error; the run loop stops on it.
func (in *Instance) fail(err error) {
	if in.failed == nil {
		in.failed = in.withFlight(err)
	}
}

// withFlight appends the flight recorder's recent-history dump to a
// fatal error, when a recorder is attached and has entries. The wrap
// preserves the original error for errors.Is/As.
func (in *Instance) withFlight(err error) error {
	if in.flight == nil || in.flight.Len() == 0 {
		return err
	}
	return fmt.Errorf("%w\nflight recorder (last %d of %d records):\n%s",
		err, in.flight.Len(), in.flight.Total(),
		strings.TrimSuffix(in.flight.Dump(), "\n"))
}
