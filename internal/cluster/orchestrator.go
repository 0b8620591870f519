package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
	"vcpusim/internal/sim"
)

// hostSeedMix spreads one replication seed across hosts (splitmix64's
// golden-ratio increment). Host 0's seed is the replication seed itself,
// so a 1-host cluster replays the single-host executive bit for bit.
const hostSeedMix = 0x9E3779B97F4A7C15

func hostSeed(seed uint64, h int) uint64 { return seed ^ uint64(h)*hostSeedMix }

// slotPhase is the orchestrator-side occupancy of one VM slot.
type slotPhase uint8

const (
	slotParked   slotPhase = iota // free capacity, generator disabled
	slotAdmitted                  // resident VM, running
	slotDraining                  // migrating away: generator off, running dry
	slotReserved                  // target of an in-flight migration
)

// slotState is the orchestrator's bookkeeping for one VM slot of one
// host. vcpus is static; the rest resets every replication.
type slotState struct {
	vcpus      int
	startsUp   bool // admitted at t=0 per the topology
	phase      slotPhase
	drainStart float64
	// tgtHost/tgtSlot name the reserved migration target while draining.
	tgtHost, tgtSlot int
}

// hostShard is one host: a compiled system, its pooled instance, and the
// orchestrator's slot bookkeeping.
type hostShard struct {
	id     int
	name   string
	worker *core.Worker
	sys    *core.System
	inst   *san.Instance
	slots  []slotState
	// gen[i] is slot i's workload-generator activity, resolved once so
	// admission and drain flips look up no name.
	gen []san.ActivityRef
	// genEnabled mirrors the instance's persisted enable state per slot,
	// so replication setup only flips transitions — a host whose slots
	// are all admitted from t=0 never touches the disable surface and
	// replays the single-host executive exactly.
	genEnabled []bool
	// pending holds the admissions the caller made while the host ran
	// behind it, in (time, rank) order, from pending[applied] on not yet
	// applied. The worker that steps the host applies each one before
	// the host's first event at or after its time.
	pending []admission
	applied int
}

// admission is a deferred admission of one slot: the time of the cluster
// event that made it and its rank among host work at that time,
// admissionRank plus its ordinal in the replication, so it ranks ahead
// of every host event at its time and after the admissions made before
// it.
type admission struct {
	time float64
	rank int
	slot int
}

// admissionRank is the rank of a replication's first deferred admission.
// A host event ranks by its host ID, so every admission ranks below it.
const admissionRank = math.MinInt

// admit makes slot resident on the host's side: unpark it in the
// scheduler's view and re-enable its workload generator. Both are
// non-marking state, so admission needs no model event — the VM starts
// at the host's next scheduler tick.
func (h *hostShard) admit(slot int) error {
	if err := h.sys.SetVMParked(slot, false); err != nil {
		return fmt.Errorf("cluster: host %s: admitting slot %d: %w", h.name, slot, err)
	}
	if !h.genEnabled[slot] {
		if err := h.inst.SetEnabled(h.gen[slot], true); err != nil {
			return fmt.Errorf("cluster: host %s: admitting slot %d: %w", h.name, slot, err)
		}
		h.genEnabled[slot] = true
	}
	return nil
}

// slotRef names one VM slot of one host.
type slotRef struct{ host, slot int }

func byHostThenSlot(a, b slotRef) int {
	if c := cmp.Compare(a.host, b.host); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// fits returns the best free slot for a VM of the given width (narrowest
// sufficient slot, lowest index on ties), or -1. The host's MaxFree in the
// fleet view answers whether such a slot exists without the scan.
func (h *hostShard) fits(vcpus int) int {
	best := -1
	for i := range h.slots {
		s := &h.slots[i]
		if s.phase != slotParked || s.vcpus < vcpus {
			continue
		}
		if best < 0 || s.vcpus < h.slots[best].vcpus {
			best = i
		}
	}
	return best
}

// widestParked returns the width of the host's widest parked slot, or 0.
func (h *hostShard) widestParked() int {
	w := 0
	for i := range h.slots {
		if h.slots[i].phase == slotParked {
			w = max(w, h.slots[i].vcpus)
		}
	}
	return w
}

// Cluster event kinds, in deterministic total order (time, seq) — and
// always ahead of host events at equal times (a cluster event at t
// observes the state before any host processes its own event at t).
const (
	evArrival = iota
	evCheck
	evAdmit
)

type clusterEvent struct {
	time float64
	seq  int
	kind int
	// evArrival
	count, vcpus int
	// evAdmit
	host, slot int
	srcHost    int
	drainStart float64
}

// eventHeap is a min-heap over (time, seq).
type eventHeap []clusterEvent

func (h *eventHeap) push(ev clusterEvent) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() clusterEvent {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// queuedVM is a VM awaiting placement (no host fits it yet).
type queuedVM struct {
	vcpus   int
	arrived float64
}

// rankedHost is a migration-target candidate: a host below the low
// threshold and the utilization a check read for it.
type rankedHost struct {
	util float64
	id   int
}

// byUtilThenID orders candidates as the migration protocol prefers them:
// lowest utilization first, lowest ID on ties.
func byUtilThenID(a, b rankedHost) int {
	if c := cmp.Compare(a.util, b.util); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// Orchestrator runs a topology's hosts under one global clock. It is the
// cluster counterpart of core.Worker: built once per worker slot
// (compiling every host shard), then driven for any number of
// replications, each a pure function of its seed. Not goroutine-safe —
// sim.RunPooled gives each worker goroutine its own Orchestrator.
type Orchestrator struct {
	topo   *Topology
	policy PlacementPolicy
	hosts  []*hostShard

	events eventHeap
	seq    int
	queue  []queuedVM
	// loads is the fleet view placement policies read, indexed by host
	// ID. setPhase keeps each host's AdmittedVCPUs and MaxFree current,
	// so no scan rebuilds it.
	loads []HostLoad

	// freeHosts[w] counts the hosts whose MaxFree is w, so a placement
	// no host fits is answered without a walk.
	freeHosts []int
	// draining lists the draining slots in (host, slot) order, the order
	// a check completes their drains in. Only a check starts or ends a
	// drain, so the check keeps the list, and arm empties it.
	draining []slotRef
	// checkAt is the time of the pending migration check, -1 when none.
	// assigned[h] is host h's AssignedPCPUs as that check reads it: stored
	// by the worker that steps the host to the check's time, and read
	// again after the check evicts one of the host's slots.
	checkAt  float64
	assigned []int
	// reached is the time every host has been stepped to: each has
	// processed all its events before it and none at or after it.
	// admissions counts the replication's deferred admissions.
	reached    float64
	admissions int

	// Reused per-check buffers: the overloaded hosts in ID order and the
	// migration-target candidates ranked by byUtilThenID.
	over []int
	rank []rankedHost

	// Per-replication cluster rewards.
	dispatches, migrations int
	downtime               float64
	placeWaitSum           float64
	placed                 int

	// lastHost holds each host's metric map from the latest replication
	// (the degenerate-case test reads host 0's raw map).
	lastHost []map[string]float64

	sink obs.Sink
	// hostSpans is set while the sink receives fault spans from hosts
	// with a fault plan; their windows then step at width 1, so the spans
	// reach the sink in the serial order.
	hostSpans bool

	// ctxCheck counts host events since the last cancellation check.
	ctxCheck int
	// task is the current round's work. steppers and stripes hold one
	// worker state and one host stripe per worker, reused across rounds;
	// width is the current round's worker count and widths[t] that of
	// the latest round of task t. crew[k-1] runs worker k on a helper
	// goroutine; the first hired of them are running.
	task     task
	steppers []stepper
	stripes  []stripe
	width    int
	widths   [numTasks]int
	crew     []*helper
	hired    int
	// groups holds each host group's compiled configuration while New's
	// build round runs; seed is the seed the arm round reseeds from.
	groups []groupBuild
	seed   uint64
	// Per-replication window counters: windows stepped, those stepped
	// at width > 1, and hosts a worker claimed from another's stripe.
	// steals follows goroutine timing, so it stays out of LastStats,
	// whose counters repeat exactly at a fixed GOMAXPROCS.
	windows, parallelWindows, steals int

	// clock, when set, times run: serial sums the caller's time in run
	// outside advance over every replication, mark is the last reading.
	// Left nil, a replication reads no clock.
	clock        func() time.Duration
	mark, serial time.Duration
}

// groupBuild is what building one host of a group needs: the group's
// system configuration, scheduler factory and host name prefix, and the
// ID of its first host.
type groupBuild struct {
	cfg     core.SystemConfig
	factory core.SchedulerFactory
	name    string
	first   int
}

// ctxCheckEvery is the number of host events between two checks of the
// replication's context.
const ctxCheckEvery = 8192

// pairTicks and workerTicks set the number of workers a window steps
// on from its work W in host-ticks (hosts × window length): two from
// pairTicks on, W/workerTicks once that is more, and at most one per
// CPU and one per host. pairTicks is the least work from which two
// workers won every measured cell of the crossover in EXPERIMENTS.md,
// "Host-affine windows". That crossover ran on a 2-vCPU host, so a
// third worker and more are unmeasured with the crew: each needs
// workerTicks, the cost per worker measured with a goroutine started
// per round ("Parallel windows").
const (
	pairTicks   = 16
	workerTicks = 250
)

// Cluster-level metric names. Per-host metrics are hostMetric(h, base)
// = "host<h>/<base>".
const (
	FleetAvailMetric   = "fleet/avail"
	FleetVUtilMetric   = "fleet/vutil"
	FleetPUtilMetric   = "fleet/putil"
	DispatchesMetric   = "cluster/dispatches"
	MigrationsMetric   = "cluster/migrations"
	DowntimeMetric     = "cluster/downtime"
	PlaceWaitMetric    = "cluster/place_wait"
	QueuedAtEndMetric  = "cluster/queued"
	AdmittedVCPUMetric = "cluster/admitted_vcpus"
)

// New compiles every host of the topology into its own shard, spread
// over the crew like a window of one tick per host. The returned
// orchestrator runs any number of replications via Replicate.
func New(topo *Topology) (*Orchestrator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	policy, err := policyFor(topo.Placement)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{topo: topo, policy: policy}
	n := 0
	for g, hg := range topo.Hosts {
		cfg, err := hg.systemConfig()
		if err != nil {
			return nil, fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		factory, err := hg.schedulerFactory()
		if err != nil {
			return nil, fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		groupName := hg.Name
		if groupName == "" {
			groupName = "host"
		}
		o.groups = append(o.groups, groupBuild{cfg: cfg, factory: factory, name: groupName, first: n})
		n += hg.Count
	}
	o.hosts = make([]*hostShard, n)
	o.loads = make([]HostLoad, n)
	o.assigned = make([]int, n)
	defer o.dismiss()
	if err := o.sweep(taskBuild); err != nil {
		return nil, err
	}
	o.groups = nil
	widest, slots := 0, 0
	for _, h := range o.hosts {
		for _, s := range h.slots {
			widest = max(widest, s.vcpus)
		}
		slots += len(h.slots)
	}
	o.freeHosts = make([]int, widest+1)
	for _, l := range o.loads {
		o.freeHosts[l.MaxFree]++
	}
	o.draining = make([]slotRef, 0, slots)
	o.over = make([]int, 0, n)
	o.rank = make([]rankedHost, 0, n)
	o.lastHost = make([]map[string]float64, n)
	return o, nil
}

// buildHost compiles host id, the build round's work on one host. Every
// slot starts parked.
func (o *Orchestrator) buildHost(id int) error {
	g, found := slices.BinarySearchFunc(o.groups, id, func(gb groupBuild, id int) int { return cmp.Compare(gb.first, id) })
	if !found {
		g--
	}
	gb := &o.groups[g]
	k := id - gb.first
	w, err := core.NewWorker(gb.cfg, gb.factory)
	if err != nil {
		return fmt.Errorf("cluster: host %s-%d: %w", gb.name, k, err)
	}
	h := &hostShard{
		id:     id,
		name:   fmt.Sprintf("%s-%d", gb.name, k),
		worker: w,
		sys:    w.System(),
		inst:   w.Instance(),
	}
	vm := 0
	for _, slot := range o.topo.Hosts[g].Slots {
		for c := 0; c < slot.Count; c++ {
			h.slots = append(h.slots, slotState{
				vcpus:    h.sys.VMVCPUs(vm),
				startsUp: slot.Admitted,
			})
			vm++
		}
	}
	h.gen = make([]san.ActivityRef, len(h.slots))
	h.genEnabled = make([]bool, len(h.slots))
	for i := range h.slots {
		if h.gen[i], err = h.inst.Program().Activity(h.sys.GenerateActivityName(i)); err != nil {
			return fmt.Errorf("cluster: host %s: %w", h.name, err)
		}
		h.genEnabled[i] = true // activities start enabled
	}
	o.hosts[id] = h
	o.loads[id] = HostLoad{ID: id, PCPUs: h.sys.NumPCPUs(), MaxFree: h.widestParked()}
	return nil
}

// SetSink installs a telemetry sink receiving cluster.dispatch and
// cluster.migrate spans (plus each host's fault spans); nil removes it.
func (o *Orchestrator) SetSink(s obs.Sink) {
	o.sink = s
	o.hostSpans = s != nil && slices.ContainsFunc(o.topo.Hosts, func(hg HostGroup) bool { return hg.Faults != nil })
	for _, h := range o.hosts {
		h.worker.SetFaultSink(s)
	}
}

// NumHosts returns the orchestrator's host count.
func (o *Orchestrator) NumHosts() int { return len(o.hosts) }

// HostMetrics returns host h's raw metric map from the most recent
// replication — exactly what the host's single-host executive would have
// reported for the same trajectory.
func (o *Orchestrator) HostMetrics(h int) map[string]float64 { return o.lastHost[h] }

// LastStats sums the engine counters of the most recent replication
// across all hosts and adds the orchestrator's own dispatch/migration
// counts.
func (o *Orchestrator) LastStats() obs.Counters {
	var c obs.Counters
	for _, h := range o.hosts {
		st := h.worker.LastStats()
		c.Events += st.EventsFired
		c.Firings += st.TimedFirings + st.InstFirings
		c.TimedFirings += st.TimedFirings
		c.InstFirings += st.InstFirings
		c.Aborts += st.Aborts
		c.Scheduled += st.EventsScheduled
		c.Cancelled += st.EventsCancelled
		c.StabilizeIters += st.StabilizeIters
		if st.MaxStabilizeDepth > c.MaxStabilizeDepth {
			c.MaxStabilizeDepth = st.MaxStabilizeDepth
		}
		c.WallNS += int64(st.WallTime)
	}
	c.Dispatches = uint64(o.dispatches)
	c.Migrations = uint64(o.migrations)
	c.Windows = uint64(o.windows)
	c.ParallelWindows = uint64(o.parallelWindows)
	return c
}

// arm prepares one replication. The arm round reseeds and resets every
// host, re-establishes its slot admission (parked flags and generator
// enables persist across resets, so only transitions are flipped) and
// begins its run; then the caller resets the fleet view in host-ID order
// and seeds the cluster event queue.
func (o *Orchestrator) arm(seed uint64) error {
	o.seed = seed
	if err := o.sweep(taskArm); err != nil {
		return err
	}
	o.draining = o.draining[:0]
	for _, h := range o.hosts {
		for i := range h.slots {
			if h.slots[i].startsUp {
				o.setPhase(h, i, slotAdmitted)
			} else {
				o.setPhase(h, i, slotParked)
			}
			h.slots[i].drainStart = 0
		}
	}
	o.seedEvents()
	return nil
}

// armHost is the arm round's work on host id.
func (o *Orchestrator) armHost(id int) error {
	h := o.hosts[id]
	if err := h.worker.Arm(hostSeed(o.seed, id)); err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	// A cancelled or failed replication can leave admissions unapplied.
	h.pending, h.applied = h.pending[:0], 0
	for i := range h.slots {
		admitted := h.slots[i].startsUp
		if err := h.sys.SetVMParked(i, !admitted); err != nil {
			return err
		}
		if h.genEnabled[i] != admitted {
			if err := h.inst.SetEnabled(h.gen[i], admitted); err != nil {
				return fmt.Errorf("cluster: host %s: %w", h.name, err)
			}
			h.genEnabled[i] = admitted
		}
	}
	if err := h.inst.BeginRun(o.topo.Warmup, o.topo.Horizon); err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	return nil
}

// seed the cluster event queue for one replication.
func (o *Orchestrator) seedEvents() {
	o.events = o.events[:0]
	o.seq = 0
	o.queue = o.queue[:0]
	o.dispatches, o.migrations = 0, 0
	o.downtime, o.placeWaitSum = 0, 0
	o.placed = 0
	o.reached, o.admissions = 0, 0
	for _, a := range o.topo.Arrivals {
		o.push(clusterEvent{time: a.At, kind: evArrival, count: a.Count, vcpus: a.VCPUs})
	}
	o.checkAt = -1
	if m := o.topo.Migration; m != nil {
		o.pushCheck(m.CheckEvery)
	}
}

// pushCheck schedules the next migration check at t, unless t is past
// the horizon.
func (o *Orchestrator) pushCheck(t float64) {
	if t < o.topo.Horizon {
		o.checkAt = t
		o.push(clusterEvent{time: t, kind: evCheck})
	} else {
		o.checkAt = -1
	}
}

func (o *Orchestrator) push(ev clusterEvent) {
	ev.seq = o.seq
	o.seq++
	o.events.push(ev)
}

// Replicate runs one cluster replication seeded with seed and returns
// the fleet metric map. Same seed, same topology: same map, bit for bit,
// at any parallelism and any GOMAXPROCS.
//
// Hosts interact only through cluster events (arrivals, migration checks,
// admissions), and no host event creates one. Of the three, only a check
// reads host state. An arrival or an admission reads only the
// orchestrator's side (the fleet view, the slot phases, the queue), and
// its one host-side effect, admitting a slot, changes no marking. So
// every host is independent from one check to the next: the loop steps
// every host through its own events strictly before the next check, or
// to the horizon, in one window (on several goroutines when the window
// is big enough), then handles the check. The strict bound keeps the
// order's tie rule: a check at t observes every host before it processes
// its own events at t. The arrivals and admissions ahead of the check
// are handled before its window, and each admission reaches its host
// where the tie rule puts it: after the host's events before its time,
// before those at or after it.
//
// One crew serves the whole replication: the arm round, every window and
// the collect round. Helpers start when a round first needs them and are
// dismissed before Replicate returns, whatever the outcome.
func (o *Orchestrator) Replicate(ctx context.Context, seed uint64) (map[string]float64, error) {
	defer o.dismiss()
	if err := o.arm(seed); err != nil {
		return nil, err
	}
	if err := o.run(ctx); err != nil {
		return nil, err
	}
	return o.collect()
}

// run is the replication's event loop over the armed hosts and the
// seeded cluster event queue, in (time, seq) order. The arrivals and
// admissions ahead of the next check are handled as soon as they are
// popped, on the caller: placement, the fleet view and the queue are
// all the caller's. Each admission they make is applied on the caller
// when the hosts sit at its time, and otherwise goes to its host's
// pending list for the window that steps the host through that time.
// Then one window steps every host to the check, or to the horizon, and
// the check runs.
//
// While a sink is set, every cluster event ends a window instead, so the
// spans reach the sink as a serial loop emits them: interleaved with the
// hosts' fault spans, and only up to the failure of a failed
// replication.
func (o *Orchestrator) run(ctx context.Context) error {
	horizon := o.topo.Horizon
	procs := runtime.GOMAXPROCS(0)
	o.ctxCheck = 0
	o.windows, o.parallelWindows, o.steals = 0, 0, 0
	o.lap(false)
	defer o.lap(true)
	for {
		for o.sink == nil && len(o.events) > 0 && o.events[0].kind != evCheck && o.events[0].time < horizon {
			if err := o.handle(o.events.pop()); err != nil {
				return err
			}
		}
		end := horizon
		if len(o.events) > 0 && o.events[0].time < end {
			end = o.events[0].time
		}
		// Cluster events often share a time (all admissions from one
		// check land at t + TransferDelay); a window that would not pass
		// the hosts' time is empty.
		if end > o.reached {
			o.lap(true)
			err := o.advance(ctx, end, o.windowWidth(procs, end-o.reached))
			o.lap(false)
			if err != nil {
				return err
			}
		}
		if end >= horizon {
			return nil
		}
		if err := o.handle(o.events.pop()); err != nil {
			return err
		}
	}
}

// lap reads the clock, when run is timed, and adds the time since the
// last reading to serial when the lap was the caller's own work.
func (o *Orchestrator) lap(serial bool) {
	if o.clock == nil {
		return
	}
	now := o.clock()
	if serial {
		o.serial += now - o.mark
	}
	o.mark = now
}

// windowWidth is the number of workers a window of the given length
// steps on: two from pairTicks host-ticks of work, one per workerTicks
// beyond that, at most one per CPU and one per host, and one while
// hosts send fault spans to the sink.
func (o *Orchestrator) windowWidth(procs int, length float64) int {
	if o.hostSpans {
		return 1
	}
	w := min(procs, len(o.hosts))
	work := float64(len(o.hosts)) * length
	if work < pairTicks {
		return 1
	}
	if workers := work / workerTicks; workers < float64(w) {
		w = max(min(w, 2), int(workers))
	}
	return w
}

// task is the work a crew round does on each host a worker claims.
type task uint8

const (
	taskStep    task = iota // step the host's events before the window bound
	taskBuild               // compile the host (New)
	taskArm                 // reseed and reset the host and begin its run
	taskCollect             // end the host's run and keep its metric map
	numTasks
)

// stepper is one round worker's state.
type stepper struct {
	host   int // ID of the claimed host being stepped, -1 when none
	budget int // host events this round may process
	done   int // host events this round processed
	steals int // hosts this window claimed from other workers' stripes
	// sample is set in the window that ends at the pending migration
	// check: each host's assigned PCPUs are stored as it reaches the
	// bound.
	sample bool
	// The worker steps each host's work that precedes (end, failRank)
	// by (virtual time, rank), where a host event ranks by its host ID
	// and a deferred admission by its admission rank, below every host
	// ID: the window bound (end, -1) until the worker meets a failure,
	// then its earliest failure, at virtual time end with rank failRank.
	// A build, arm or collect round leaves end at 0 and records its
	// lowest failing host ID as failRank.
	end      float64
	failRank int
	failure  error
}

// stripe is one worker's share of a window's hosts, the IDs [front,
// back) packed into one word, front in the high half: the owner claims
// from the front and other workers steal from the back, each with one
// compare-and-swap. The padding keeps each stripe on its own cache line.
type stripe struct {
	span atomic.Uint64
	_    [56]byte
}

func (s *stripe) set(front, back int) { s.span.Store(uint64(front)<<32 | uint64(back)) }

// empty reports whether every host of the stripe has been claimed.
func (s *stripe) empty() bool {
	v := s.span.Load()
	return v>>32 >= v&math.MaxUint32
}

// take claims the stripe's front host, or its back host when steal is
// set, and returns its ID, or -1 when the stripe is empty.
func (s *stripe) take(steal bool) int {
	for {
		v := s.span.Load()
		front, back := v>>32, v&math.MaxUint32
		if front >= back {
			return -1
		}
		next, id := v+1<<32, front
		if steal {
			next, id = v-1, back-1
		}
		if s.span.CompareAndSwap(v, next) {
			return int(id)
		}
	}
}

// claim returns the next host for worker w: the front of its own
// stripe, else the back of the first other stripe, after w, with hosts
// left; -1 when every stripe is empty.
func (o *Orchestrator) claim(w int) int {
	stripes := o.stripes[:o.width]
	if id := stripes[w].take(false); id >= 0 {
		return id
	}
	for k := 1; k < len(stripes); k++ {
		if id := stripes[(w+k)%len(stripes)].take(true); id >= 0 {
			o.steppers[w].steals++
			return id
		}
	}
	return -1
}

// step runs worker w's hosts through their events before its bound,
// each claimed as the previous one finishes, until no host is left or
// the worker has processed its budget. Ahead of each event, and on
// reaching the bound, the host's pending admissions stamped at or
// before that time are applied. A host stops at its first failure.
// Claims do not come in ID order once a worker steals, so the bound is
// lexicographic: after a failure at (t, f), a later host whose ID is
// below f still runs its events at exactly t, and every host still
// applies its admissions at t that rank below f. Everything the worker
// skips therefore comes after its earliest failure in (time, rank)
// order, and the last failure recorded is that earliest one.
func (o *Orchestrator) step(w int) {
	s := &o.steppers[w]
	id, done, budget := s.host, 0, s.budget
	for done < budget {
		if id < 0 {
			if id = o.claim(w); id < 0 {
				break
			}
		}
		h := o.hosts[id]
		in := h.inst
		bound := s.end
		if id < s.failRank {
			bound = math.Nextafter(bound, math.Inf(1))
		}
		for done < budget {
			t := in.PeekNextEventTime()
			if h.applied < len(h.pending) && !s.admitDue(h, t) {
				id = -1
				break
			}
			if t >= bound {
				if s.sample {
					o.assigned[id] = h.sys.AssignedPCPUs()
				}
				h.pending, h.applied = h.pending[:0], 0
				id = -1
				break
			}
			if err := in.ProcessNextEvent(); err != nil {
				s.failure = fmt.Errorf("cluster: host %s: %w", h.name, err)
				s.end, s.failRank = t, id
				id = -1
				break
			}
			done++
		}
	}
	s.host, s.done = id, done
}

// admitDue applies host h's pending admissions stamped at or before t,
// the time of its next event, that precede the worker's bound. It
// reports false when one fails, which then becomes the worker's bound.
func (s *stepper) admitDue(h *hostShard, t float64) bool {
	for ; h.applied < len(h.pending); h.applied++ {
		a := &h.pending[h.applied]
		if a.time > t || a.time > s.end || a.time == s.end && a.rank >= s.failRank {
			return true
		}
		if err := h.admit(a.slot); err != nil {
			s.failure, s.end, s.failRank = err, a.time, a.rank
			return false
		}
	}
	return true
}

// advance runs every host through its events strictly before end, on
// width workers: the calling goroutine is worker 0 and helper k of the
// replication's crew is worker k, so width 1 starts none. The hosts
// are cut into width contiguous ID stripes (deal), so a host is stepped
// by the same worker, on the same goroutine, from one window to the
// next; a worker whose stripe is empty steals from the
// back of the others. Each round splits the host events left before
// the next cancellation check across the live workers, and only this
// goroutine polls ctx, after every ctxCheckEvery host events summed
// over all hosts — the cadence of a serial loop. Each host applies its
// pending admissions on the way (step). The error reported is the
// failure with the smallest (virtual time, rank) over all workers: the
// failure the serial loop would reach first, where an admission at t
// comes before every host event at t, in the order the admissions were
// made, and host events at t come in host-ID order.
//
// In the window that ends at the pending migration check, each host's
// worker stores the host's assigned PCPUs as it reaches end, so the
// check reads no host it does not evict.
//
// No host enters a window failed (every failure ends the replication),
// and end never exceeds the horizon, so the window bound alone decides
// which events are pending. A window that completes leaves every host
// at end, with no admission pending.
func (o *Orchestrator) advance(ctx context.Context, end float64, width int) error {
	o.windows++
	if width > 1 {
		o.parallelWindows++
	}
	ws := o.deal(taskStep, width, end)
	for w := range ws {
		ws[w].sample = end == o.checkAt
	}
	for {
		// Live workers: every worker while hosts are left to claim,
		// then those still holding a claimed host.
		open := false
		for w := range ws {
			open = open || !o.stripes[w].empty()
		}
		live := 0
		for w := range ws {
			if open || ws[w].host >= 0 {
				live++
			}
		}
		if live == 0 {
			break
		}
		left, k := ctxCheckEvery-o.ctxCheck, 0
		for w := range ws {
			ws[w].budget, ws[w].done = 0, 0
			if open || ws[w].host >= 0 {
				ws[w].budget = left / live
				if k < left%live {
					ws[w].budget++
				}
				k++
			}
		}
		o.round(ws)
		for w := range ws {
			o.ctxCheck += ws[w].done
		}
		if o.ctxCheck == ctxCheckEvery {
			o.ctxCheck = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("cluster: replication cancelled: %w", err)
			}
		}
	}
	for w := range ws {
		o.steals += ws[w].steals
	}
	if err := firstFailure(ws); err != nil {
		return err
	}
	o.reached = end
	return nil
}

// deal readies a round of task t over every host on width workers: it
// grows the workers' state and the crew as needed, makes sure helpers
// 1..width-1 are running, and cuts the hosts into width contiguous ID
// stripes, stripe w worker w's, so a host meets the same worker in every
// round of a replication.
func (o *Orchestrator) deal(t task, width int, end float64) []stepper {
	o.reserve(width)
	o.hire(width - 1)
	o.task, o.width, o.widths[t] = t, width, width
	ws := o.steppers[:width]
	n := len(o.hosts)
	for w := range ws {
		ws[w] = stepper{host: -1, end: end, failRank: -1}
		o.stripes[w].set(w*n/width, (w+1)*n/width)
	}
	return ws
}

// firstFailure returns the failure with the smallest (virtual time,
// rank) over the round's workers, or nil: the failure the serial order
// reaches first.
func firstFailure(ws []stepper) error {
	var first *stepper
	for w := range ws {
		s := &ws[w]
		if s.failure != nil && (first == nil || s.end < first.end ||
			s.end == first.end && s.failRank < first.failRank) {
			first = s
		}
	}
	if first == nil {
		return nil
	}
	return first.failure
}

// sweep runs task t, which is not stepping, once on every host, in one
// round whose width counts a host's share as one host-tick of a window,
// and returns the error of the lowest failing host ID.
func (o *Orchestrator) sweep(t task) error {
	ws := o.deal(t, o.windowWidth(runtime.GOMAXPROCS(0), 1), 0)
	for w := range ws {
		ws[w].budget = 1 // every worker takes part
	}
	o.round(ws)
	return firstFailure(ws)
}

// work runs worker w's share of the current round. Outside stepping,
// the worker claims hosts until none is left; after a failure it skips
// the hosts above the failing ID, whose errors could not be the
// lowest.
func (o *Orchestrator) work(w int) {
	if o.task == taskStep {
		o.step(w)
		return
	}
	s := &o.steppers[w]
	for id := o.claim(w); id >= 0; id = o.claim(w) {
		if s.failure != nil && id > s.failRank {
			continue
		}
		var err error
		switch o.task {
		case taskBuild:
			err = o.buildHost(id)
		case taskArm:
			err = o.armHost(id)
		case taskCollect:
			err = o.collectHost(id)
		}
		if err != nil {
			s.failure, s.failRank = err, id
		}
	}
}

// round runs every worker with budget once: worker 0 on the calling
// goroutine, each other on its helper. A helper that has not taken its
// round by the time worker 0 is done gets it taken back, and the
// calling goroutine runs that worker itself instead of waiting for the
// helper to be scheduled.
func (o *Orchestrator) round(ws []stepper) {
	for k := 1; k < len(ws); k++ {
		if ws[k].budget > 0 {
			o.crew[k-1].offer()
		}
	}
	if ws[0].budget > 0 {
		o.work(0)
	}
	for k := 1; k < len(ws); k++ {
		if ws[k].budget > 0 {
			if c := o.crew[k-1]; c.revoke() {
				o.work(k)
			} else {
				c.wait()
			}
		}
	}
}

// spinChecks is how many times a goroutine waiting for a crew signal
// checks it before parking: a helper waiting for its next round, or
// the caller waiting for a helper to finish one. Every yieldEvery
// checks the waiter yields its CPU to any other runnable goroutine, so
// a spinning helper does not hold back a replication pool that already
// keeps every CPU busy. Both are derived from the measured gaps between
// rounds in EXPERIMENTS.md, "Host-affine windows".
const (
	spinChecks = 1 << 17
	yieldEvery = 1 << 10
)

// signal carries a rising counter from one goroutine to one waiter,
// which spins for spinChecks checks and then parks on wake. A post
// sends a wake-up only to a parked waiter.
type signal struct {
	n      atomic.Uint32
	parked atomic.Bool
	wake   chan struct{}
}

func (s *signal) post(n uint32) {
	s.n.Store(n)
	if s.parked.Swap(false) {
		s.wake <- struct{}{}
	}
}

// await returns the counter once it differs from old. Either the
// waiter's check after setting parked sees the new value, or post sees
// parked and sends: whichever side clears parked, the waiter receives a
// wake-up exactly when post sends one. A wake-up that finds the counter
// still at old is stale, the tail of a post the waiter had already seen
// by its value, and the waiter parks again.
func (s *signal) await(old uint32) uint32 {
	for i := 1; i <= spinChecks; i++ {
		if n := s.n.Load(); n != old {
			return n
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	for {
		s.parked.Store(true)
		if n := s.n.Load(); n != old && s.parked.Swap(false) {
			return n
		}
		<-s.wake
		if n := s.n.Load(); n != old {
			return n
		}
	}
}

// helper is the caller's handle on one crew goroutine. The caller
// offers round r by posting 2r on begin, and whichever of the helper
// and the caller first moves it to 2r+1 runs the round; the helper
// posts 2r+1 on finish when it has run one. quit, set before the last
// offer, tells the helper to exit; its send on gone is the last thing
// it does. The padding keeps two helpers' signals off one cache line.
type helper struct {
	begin, finish signal
	offered       uint32 // the caller's last offer on begin
	finished      uint32 // the last value the caller read on finish
	quit          bool
	gone          chan struct{}
	run           func() // the helper's loop, built once so hiring allocates no closure
	_             [64]byte
}

func (c *helper) offer() {
	c.offered += 2
	c.begin.post(c.offered)
}

// revoke takes the last offered round back, unless the helper has
// taken it already.
func (c *helper) revoke() bool { return c.begin.n.CompareAndSwap(c.offered, c.offered+1) }

// wait returns once the helper has run the round it took.
func (c *helper) wait() { c.finished = c.finish.await(c.finished) }

// reserve makes room for windows of up to width workers. Helpers keep
// their own *helper, so the crew grows without moving a running one.
func (o *Orchestrator) reserve(width int) {
	if len(o.steppers) < width {
		o.steppers = make([]stepper, width)
		o.stripes = make([]stripe, width)
	}
	for len(o.crew) < width-1 {
		c := &helper{
			begin:  signal{wake: make(chan struct{}, 1)},
			finish: signal{wake: make(chan struct{}, 1)},
			gone:   make(chan struct{}, 1),
		}
		k := len(o.crew) + 1
		c.run = func() { o.help(k, c) }
		o.crew = append(o.crew, c)
	}
}

// hire makes sure helpers 1..n, reserved already, are running. Each
// helper is started at most once per replication (or per New) and runs
// until dismiss.
func (o *Orchestrator) hire(n int) {
	for ; o.hired < n; o.hired++ {
		c := o.crew[o.hired]
		c.begin.n.Store(0)
		c.finish.n.Store(0)
		c.offered, c.finished, c.quit = 0, 0, false
		go c.run()
	}
}

// help is helper k's loop: run worker k, and so stripe k, in every
// round it takes from c, until told to quit. It reads no field of o
// outside a round, so the caller may grow the crew while it runs.
func (o *Orchestrator) help(k int, c *helper) {
	var seen uint32
	for {
		seen = c.begin.await(seen)
		if seen%2 == 1 || !c.begin.n.CompareAndSwap(seen, seen+1) {
			// The caller took the round back and ran it.
			seen |= 1
			continue
		}
		seen++
		if c.quit {
			c.gone <- struct{}{}
			return
		}
		o.work(k)
		c.finish.post(seen)
	}
}

// dismiss stops every running helper and waits until each has left
// its loop: after gone, the helper touches neither its signals nor any
// field of o, so hire may reset them and start the next one.
func (o *Orchestrator) dismiss() {
	for ; o.hired > 0; o.hired-- {
		c := o.crew[o.hired-1]
		c.quit = true
		c.offer()
		<-c.gone
	}
}

// handle executes one cluster event and then retries the placement
// queue (capacity may have freed).
func (o *Orchestrator) handle(ev clusterEvent) error {
	switch ev.kind {
	case evArrival:
		for i := 0; i < ev.count; i++ {
			placed, err := o.place(ev.vcpus, ev.time, ev.time)
			if err != nil {
				return err
			}
			if !placed {
				o.queue = append(o.queue, queuedVM{vcpus: ev.vcpus, arrived: ev.time})
			}
		}
	case evCheck:
		if err := o.migrationCheck(ev.time); err != nil {
			return err
		}
	case evAdmit:
		h := o.hosts[ev.host]
		if err := o.admit(h, ev.slot, ev.time); err != nil {
			return err
		}
		o.migrations++
		o.downtime += ev.time - ev.drainStart
		if o.sink != nil {
			o.sink.Emit(obs.Event{Kind: obs.KindMigrate, Attrs: map[string]any{
				"t": ev.time, "from": o.hosts[ev.srcHost].name, "to": h.name,
				"vcpus": h.slots[ev.slot].vcpus, "downtime": ev.time - ev.drainStart,
			}})
		}
	}
	// FIFO retry: only the head may jump the queue.
	for len(o.queue) > 0 {
		q := o.queue[0]
		placed, err := o.place(q.vcpus, ev.time, q.arrived)
		if err != nil {
			return err
		}
		if !placed {
			break
		}
		o.queue = o.queue[1:]
	}
	return nil
}

// setPhase moves a slot to phase p and keeps the fleet view current:
// the host's AdmittedVCPUs sums the widths of its non-parked slots,
// MaxFree is its widest parked slot and freeHosts counts the hosts per
// MaxFree. Every slot phase change goes through here, so the view
// always equals what a scan of the slots would compute.
func (o *Orchestrator) setPhase(h *hostShard, slot int, p slotPhase) {
	s := &h.slots[slot]
	was := s.phase
	s.phase = p
	if (was == slotParked) == (p == slotParked) {
		return
	}
	l := &o.loads[h.id]
	free := l.MaxFree
	if p == slotParked {
		l.AdmittedVCPUs -= s.vcpus
		free = max(free, s.vcpus)
	} else {
		l.AdmittedVCPUs += s.vcpus
		if s.vcpus == free {
			free = h.widestParked()
		}
	}
	o.freeHosts[l.MaxFree]--
	o.freeHosts[free]++
	l.MaxFree = free
}

// fitsSomewhere reports whether some host has a parked slot at least
// vcpus wide.
func (o *Orchestrator) fitsSomewhere(vcpus int) bool {
	for w := vcpus; w < len(o.freeHosts); w++ {
		if o.freeHosts[w] > 0 {
			return true
		}
	}
	return false
}

// place routes one VM through the placement policy; false means no host
// fits and the VM must queue. When no host fits, every policy returns -1
// and changes nothing, so the policy is not asked. An admission error is
// a model error and ends the replication, as it does for a migration's
// admission.
func (o *Orchestrator) place(vcpus int, now, arrived float64) (bool, error) {
	if !o.fitsSomewhere(vcpus) {
		return false, nil
	}
	hid := o.policy.Place(vcpus, o.loads)
	if hid < 0 {
		return false, nil
	}
	h := o.hosts[hid]
	slot := h.fits(vcpus)
	if slot < 0 {
		// The policy picked a host that does not fit; treat as queued
		// rather than crash — a policy bug must not kill the replication.
		return false, nil
	}
	if err := o.admit(h, slot, now); err != nil {
		return false, err
	}
	o.dispatches++
	o.placed++
	o.placeWaitSum += now - arrived
	if o.sink != nil {
		o.sink.Emit(obs.Event{Kind: obs.KindDispatch, Attrs: map[string]any{
			"t": now, "host": h.name, "vcpus": vcpus, "wait": now - arrived,
		}})
	}
	return true, nil
}

// admit makes slot of host h resident at time now. The fleet view moves
// at once. The host's side is applied at once when the hosts sit at now,
// and otherwise is deferred to the host's pending list, for the window
// that steps the host through now.
func (o *Orchestrator) admit(h *hostShard, slot int, now float64) error {
	o.setPhase(h, slot, slotAdmitted)
	if now == o.reached {
		return h.admit(slot)
	}
	h.pending = append(h.pending, admission{time: now, rank: admissionRank + o.admissions, slot: slot})
	o.admissions++
	return nil
}

// migrationCheck is one threshold scan at virtual time t: finish any
// drained migrations (evict at t, re-admit after the transfer delay),
// then start new drains on overloaded hosts, then schedule the next
// check.
func (o *Orchestrator) migrationCheck(t float64) error {
	m := o.topo.Migration
	// Phase 1: complete drains whose VM has run dry, in (host, slot)
	// order, keeping the others in the draining list. Eviction mutates
	// the marking, so it runs inside Exec at a stable marking, and the
	// host's assignment is read again after it.
	draining := o.draining[:0]
	for _, d := range o.draining {
		h, slot := o.hosts[d.host], d.slot
		if !h.sys.VMDrained(slot) {
			draining = append(draining, d)
			continue
		}
		err := h.inst.Exec(t, func() {
			h.sys.EvictVM(slot)
			h.sys.SetVMParked(slot, true)
		})
		if err != nil {
			return fmt.Errorf("cluster: host %s: evicting slot %d: %w", h.name, slot, err)
		}
		o.assigned[h.id] = h.sys.AssignedPCPUs()
		o.setPhase(h, slot, slotParked)
		s := &h.slots[slot]
		o.push(clusterEvent{
			time: t + m.TransferDelay, kind: evAdmit,
			host: s.tgtHost, slot: s.tgtSlot, srcHost: h.id, drainStart: s.drainStart,
		})
	}
	o.draining = draining
	// Starting drains only disables generators and reserves slots,
	// neither of which touches a marking, so each host's utilization
	// holds for the rest of the check: the assignment its worker stored
	// on reaching t (cluster events before the check at t admit VMs,
	// which touches no marking either), or the one read after its
	// eviction. Sources are the hosts above the high threshold, in ID
	// order; targets are the hosts below the low one, ranked lowest
	// utilization first, lowest ID on ties. No host is both, since
	// lowUtil < highUtil.
	o.over, o.rank = o.over[:0], o.rank[:0]
	for id, n := range o.assigned {
		util := float64(n) / float64(o.loads[id].PCPUs)
		if util > m.HighUtil {
			o.over = append(o.over, id)
		} else if util < m.LowUtil {
			o.rank = append(o.rank, rankedHost{util: util, id: id})
		}
	}
	slices.SortFunc(o.rank, byUtilThenID)
	// Phase 2: start new drains, one per overloaded host per check, each
	// toward the first ranked host that fits the VM.
	ranked := o.rank
	for _, id := range o.over {
		src := o.hosts[id]
		slot := -1
		for i := range src.slots {
			if src.slots[i].phase == slotAdmitted {
				slot = i
				break
			}
		}
		if slot < 0 {
			continue
		}
		vcpus := src.slots[slot].vcpus
		k := 0
		for k < len(ranked) && o.loads[ranked[k].id].MaxFree < vcpus {
			k++
		}
		if k == len(ranked) {
			continue
		}
		tgt := o.hosts[ranked[k].id]
		tgtSlot := tgt.fits(vcpus)
		// Begin drain: stop generating on the source slot (non-marking)
		// and reserve the target slot so nothing else books it.
		if src.genEnabled[slot] {
			if err := src.inst.SetEnabled(src.gen[slot], false); err != nil {
				return err
			}
			src.genEnabled[slot] = false
		}
		o.setPhase(src, slot, slotDraining)
		o.draining = append(o.draining, slotRef{host: src.id, slot: slot})
		src.slots[slot].drainStart = t
		src.slots[slot].tgtHost = tgt.id
		src.slots[slot].tgtSlot = tgtSlot
		o.setPhase(tgt, tgtSlot, slotReserved)
		// Fully booked hosts at the front never fit again this check.
		for len(ranked) > 0 && o.loads[ranked[0].id].MaxFree == 0 {
			ranked = ranked[1:]
		}
	}
	slices.SortFunc(o.draining, byHostThenSlot)
	o.pushCheck(t + m.CheckEvery)
	return nil
}

// collect ends every host's run in the collect round, then sums the
// fleet metric map in host-ID order.
func (o *Orchestrator) collect() (map[string]float64, error) {
	if err := o.sweep(taskCollect); err != nil {
		return nil, err
	}
	n := float64(len(o.hosts))
	out := make(map[string]float64, 16)
	var avail, vutil, putil float64
	admitted := 0
	for id, m := range o.lastHost {
		avail += m[core.AvailabilityAvgMetric]
		vutil += m[core.VCPUUtilizationAvgMetric]
		putil += m[core.PCPUUtilizationAvgMetric]
		admitted += o.loads[id].AdmittedVCPUs
	}
	out[FleetAvailMetric] = avail / n
	out[FleetVUtilMetric] = vutil / n
	out[FleetPUtilMetric] = putil / n
	out[DispatchesMetric] = float64(o.dispatches)
	out[MigrationsMetric] = float64(o.migrations)
	out[DowntimeMetric] = o.downtime
	if o.placed > 0 {
		out[PlaceWaitMetric] = o.placeWaitSum / float64(o.placed)
	} else {
		out[PlaceWaitMetric] = 0
	}
	out[QueuedAtEndMetric] = float64(len(o.queue))
	out[AdmittedVCPUMetric] = float64(admitted)
	return out, nil
}

// collectHost is the collect round's work on host id.
func (o *Orchestrator) collectHost(id int) error {
	h := o.hosts[id]
	m, err := h.worker.Collect()
	if err != nil {
		return fmt.Errorf("cluster: host %s: %w", h.name, err)
	}
	o.lastHost[id] = m
	return nil
}

// ReplicatorFactory adapts the topology to the sim package's pooled
// replication machinery: each worker slot compiles its own orchestrator
// once and reuses it across the replications that slot runs. Results are
// byte-identical at any parallelism — each replication is a pure
// function of its seed.
func (t *Topology) ReplicatorFactory(sink obs.Sink, acc *obs.Accumulator) sim.ReplicatorFactory {
	return func() (sim.Replicator, error) {
		o, err := New(t)
		if err != nil {
			return nil, err
		}
		o.SetSink(sink)
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			out, err := o.Replicate(ctx, seed)
			if err != nil {
				return nil, err
			}
			if acc != nil {
				acc.Add(o.LastStats())
			}
			return out, nil
		}, nil
	}
}
