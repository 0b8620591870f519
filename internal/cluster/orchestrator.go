package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
	// genName[i] is slot i's workload-generator activity name, resolved
	// once so admission and drain flips build no strings.
	genName []string
	// genEnabled mirrors the instance's persisted SetActivityEnabled
	// state per slot, so replication setup only flips transitions — a
	// host whose slots are all admitted from t=0 never touches the
	// disable surface and replays the single-host executive exactly.
	genEnabled []bool
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

	// ctxCheck counts host events since the last cancellation check.
	ctxCheck int
}

// ctxCheckEvery is the number of host events between two checks of the
// replication's context.
const ctxCheckEvery = 8192

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

// HostMetric names host h's copy of a fleet metric base, e.g.
// HostMetric(3, "avail") == "host3/avail".
func HostMetric(h int, base string) string { return fmt.Sprintf("host%d/%s", h, base) }

// New compiles every host of the topology into its own shard. The
// returned orchestrator runs any number of replications via Replicate.
func New(topo *Topology) (*Orchestrator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	policy, err := policyFor(topo.Placement)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{topo: topo, policy: policy}
	for g, hg := range topo.Hosts {
		cfg, err := hg.systemConfig(topo.Contract)
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
		for k := 0; k < hg.Count; k++ {
			w, err := core.NewWorker(cfg, factory)
			if err != nil {
				return nil, fmt.Errorf("cluster: host %s-%d: %w", groupName, k, err)
			}
			h := &hostShard{
				id:     len(o.hosts),
				name:   fmt.Sprintf("%s-%d", groupName, k),
				worker: w,
				sys:    w.System(),
				inst:   w.Instance(),
			}
			vm := 0
			for _, slot := range hg.Slots {
				for c := 0; c < slot.Count; c++ {
					h.slots = append(h.slots, slotState{
						vcpus:    h.sys.VMVCPUs(vm),
						startsUp: slot.Admitted,
					})
					vm++
				}
			}
			h.genName = make([]string, len(h.slots))
			h.genEnabled = make([]bool, len(h.slots))
			for i := range h.slots {
				h.genName[i] = h.sys.GenerateActivityName(i)
				h.genEnabled[i] = true // activities start enabled
			}
			o.hosts = append(o.hosts, h)
			// Every slot starts parked.
			o.loads = append(o.loads, HostLoad{ID: h.id, PCPUs: h.sys.NumPCPUs(), MaxFree: h.widestParked()})
		}
	}
	o.over = make([]int, 0, len(o.hosts))
	o.rank = make([]rankedHost, 0, len(o.hosts))
	o.lastHost = make([]map[string]float64, len(o.hosts))
	return o, nil
}

// SetSink installs a telemetry sink receiving cluster.dispatch and
// cluster.migrate spans (plus each host's fault spans); nil removes it.
func (o *Orchestrator) SetSink(s obs.Sink) {
	o.sink = s
	for _, h := range o.hosts {
		h.worker.SetFaultSink(s)
	}
}

// NumHosts returns the orchestrator's host count.
func (o *Orchestrator) NumHosts() int { return len(o.hosts) }

// Host returns host h's compiled worker for read-only instrumentation.
func (o *Orchestrator) Host(h int) *core.Worker { return o.hosts[h].worker }

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
	return c
}

// arm prepares one replication: every host is reseeded and reset, gets
// its slot admission re-established (parked flags and generator enables
// persist across resets, so only transitions are flipped) and begins its
// run; then the cluster event queue is seeded.
func (o *Orchestrator) arm(seed uint64) error {
	for _, h := range o.hosts {
		if err := h.worker.Arm(hostSeed(seed, h.id)); err != nil {
			return fmt.Errorf("cluster: host %s: %w", h.name, err)
		}
		for i := range h.slots {
			admitted := h.slots[i].startsUp
			if admitted {
				o.setPhase(h, i, slotAdmitted)
			} else {
				o.setPhase(h, i, slotParked)
			}
			h.slots[i].drainStart = 0
			if err := h.sys.SetVMParked(i, !admitted); err != nil {
				return err
			}
			if h.genEnabled[i] != admitted {
				if err := h.inst.SetActivityEnabled(h.genName[i], admitted); err != nil {
					return fmt.Errorf("cluster: host %s: %w", h.name, err)
				}
				h.genEnabled[i] = admitted
			}
		}
		if err := h.inst.BeginRun(o.topo.Warmup, o.topo.Horizon); err != nil {
			return fmt.Errorf("cluster: host %s: %w", h.name, err)
		}
	}
	o.seedEvents()
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
	for _, a := range o.topo.Arrivals {
		o.push(clusterEvent{time: a.At, kind: evArrival, count: a.Count, vcpus: a.VCPUs})
	}
	if m := o.topo.Migration; m != nil && m.CheckEvery < o.topo.Horizon {
		o.push(clusterEvent{time: m.CheckEvery, kind: evCheck})
	}
}

func (o *Orchestrator) push(ev clusterEvent) {
	ev.seq = o.seq
	o.seq++
	o.events.push(ev)
}

// Replicate runs one cluster replication seeded with seed and returns
// the fleet metric map. Same seed, same topology: same map, bit for bit,
// at any parallelism.
//
// Hosts interact only through cluster events (arrivals, migration checks,
// admissions), and no host event creates one. Between two consecutive
// cluster-event times every host is therefore independent, so the loop
// steps each host, in ID order, through its own events strictly before
// the next cluster event, then handles that event. The strict bound
// keeps the order's tie rule: a cluster event at t observes every host
// before it processes its own events at t.
func (o *Orchestrator) Replicate(ctx context.Context, seed uint64) (map[string]float64, error) {
	if err := o.arm(seed); err != nil {
		return nil, err
	}
	if err := o.run(ctx); err != nil {
		return nil, err
	}
	return o.collect()
}

// run is the replication's event loop over the armed hosts and the
// seeded cluster event queue.
func (o *Orchestrator) run(ctx context.Context) error {
	horizon := o.topo.Horizon
	o.ctxCheck = 0
	// Every host has processed all its events before reached. Cluster
	// events often share a time (all admissions from one check land at
	// t + TransferDelay); a window that would not pass reached is empty.
	reached := math.Inf(-1)
	for {
		end := horizon
		if len(o.events) > 0 && o.events[0].time < end {
			end = o.events[0].time
		}
		if end > reached {
			if err := o.advance(ctx, end); err != nil {
				return err
			}
			reached = end
		}
		if end >= horizon {
			return nil
		}
		if err := o.handle(o.events.pop()); err != nil {
			return err
		}
	}
}

// advance runs every host, in ID order, through its events strictly
// before end. Each host stops at its own first failure; the error
// reported is the one with the smallest (virtual time, host ID), the
// failure a global (time, host ID) event order would reach first. Once
// one host has failed at t, later hosts (higher IDs) need only run their
// events before t to find an earlier failure.
//
// No host enters a window failed (every failure ends the replication),
// and end never exceeds the horizon, so the window bound alone decides
// which events are pending.
func (o *Orchestrator) advance(ctx context.Context, end float64) error {
	var failure error
	for _, h := range o.hosts {
		in := h.inst
		for {
			t := in.PeekNextEventTime()
			if t >= end {
				break
			}
			if err := in.ProcessNextEvent(); err != nil {
				failure = fmt.Errorf("cluster: host %s: %w", h.name, err)
				end = t
				break
			}
			if o.ctxCheck++; o.ctxCheck >= ctxCheckEvery {
				o.ctxCheck = 0
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("cluster: replication cancelled: %w", err)
				}
			}
		}
	}
	return failure
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
		if err := o.admit(h, ev.slot); err != nil {
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

// setPhase moves a slot to phase p and keeps the host's entry in the
// fleet view current: AdmittedVCPUs sums the widths of its non-parked
// slots and MaxFree is its widest parked slot. Every slot phase change
// goes through here, so the view always equals what a scan of the slots
// would compute.
func (o *Orchestrator) setPhase(h *hostShard, slot int, p slotPhase) {
	s := &h.slots[slot]
	was := s.phase
	s.phase = p
	if (was == slotParked) == (p == slotParked) {
		return
	}
	l := &o.loads[h.id]
	if p == slotParked {
		l.AdmittedVCPUs -= s.vcpus
		l.MaxFree = max(l.MaxFree, s.vcpus)
		return
	}
	l.AdmittedVCPUs += s.vcpus
	if s.vcpus == l.MaxFree {
		l.MaxFree = h.widestParked()
	}
}

// place routes one VM through the placement policy; false means no host
// fits and the VM must queue. An admission error is a model error and
// ends the replication, as it does for a migration's admission.
func (o *Orchestrator) place(vcpus int, now, arrived float64) (bool, error) {
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
	if err := o.admit(h, slot); err != nil {
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

// admit makes slot resident on host h: unpark it in the scheduler's view
// and re-enable its workload generator. Both are non-marking state, so
// admission needs no model event — the VM starts at the host's next
// scheduler tick.
func (o *Orchestrator) admit(h *hostShard, slot int) error {
	if err := h.sys.SetVMParked(slot, false); err != nil {
		return fmt.Errorf("cluster: host %s: admitting slot %d: %w", h.name, slot, err)
	}
	if !h.genEnabled[slot] {
		if err := h.inst.SetActivityEnabled(h.genName[slot], true); err != nil {
			return fmt.Errorf("cluster: host %s: admitting slot %d: %w", h.name, slot, err)
		}
		h.genEnabled[slot] = true
	}
	o.setPhase(h, slot, slotAdmitted)
	return nil
}

// migrationCheck is one threshold scan at virtual time t: finish any
// drained migrations (evict at t, re-admit after the transfer delay),
// then start new drains on overloaded hosts, then schedule the next
// check.
func (o *Orchestrator) migrationCheck(t float64) error {
	m := o.topo.Migration
	// Phase 1: complete drains whose VM has run dry. Eviction mutates the
	// marking, so it runs inside Exec at a stable marking.
	for _, h := range o.hosts {
		for i := range h.slots {
			s := &h.slots[i]
			if s.phase != slotDraining || !h.sys.VMDrained(i) {
				continue
			}
			slot := i
			err := h.inst.Exec(t, func() {
				h.sys.EvictVM(slot)
				h.sys.SetVMParked(slot, true)
			})
			if err != nil {
				return fmt.Errorf("cluster: host %s: evicting slot %d: %w", h.name, slot, err)
			}
			o.setPhase(h, slot, slotParked)
			o.push(clusterEvent{
				time: t + m.TransferDelay, kind: evAdmit,
				host: s.tgtHost, slot: s.tgtSlot, srcHost: h.id, drainStart: s.drainStart,
			})
		}
	}
	// Starting drains only disables generators and reserves slots,
	// neither of which touches a marking, so each host's utilization is
	// read once here and holds for the rest of the check. Sources are the hosts
	// above the high threshold, in ID order; targets are the hosts below
	// the low one, ranked lowest utilization first, lowest ID on ties. No
	// host is both, since lowUtil < highUtil.
	o.over, o.rank = o.over[:0], o.rank[:0]
	for _, h := range o.hosts {
		util := float64(h.sys.AssignedPCPUs()) / float64(h.sys.NumPCPUs())
		if util > m.HighUtil {
			o.over = append(o.over, h.id)
		} else if util < m.LowUtil {
			o.rank = append(o.rank, rankedHost{util: util, id: h.id})
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
			if err := src.inst.SetActivityEnabled(src.genName[slot], false); err != nil {
				return err
			}
			src.genEnabled[slot] = false
		}
		o.setPhase(src, slot, slotDraining)
		src.slots[slot].drainStart = t
		src.slots[slot].tgtHost = tgt.id
		src.slots[slot].tgtSlot = tgtSlot
		o.setPhase(tgt, tgtSlot, slotReserved)
		// Fully booked hosts at the front never fit again this check.
		for len(ranked) > 0 && o.loads[ranked[0].id].MaxFree == 0 {
			ranked = ranked[1:]
		}
	}
	if next := t + m.CheckEvery; next < o.topo.Horizon {
		o.push(clusterEvent{time: next, kind: evCheck})
	}
	return nil
}

// collect ends every host's run and aggregates the fleet metric map.
func (o *Orchestrator) collect() (map[string]float64, error) {
	n := float64(len(o.hosts))
	out := make(map[string]float64, 16)
	var avail, vutil, putil float64
	admitted := 0
	for _, h := range o.hosts {
		m, err := h.worker.Collect()
		if err != nil {
			return nil, fmt.Errorf("cluster: host %s: %w", h.name, err)
		}
		o.lastHost[h.id] = m
		avail += m[core.AvailabilityAvgMetric]
		vutil += m[core.VCPUUtilizationAvgMetric]
		putil += m[core.PCPUUtilizationAvgMetric]
		admitted += o.loads[h.id].AdmittedVCPUs
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
