package core

import (
	"fmt"

	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// Deep-inspection surface: read-only snapshots of per-entity scheduling
// state for probes and timelines, opt-in histogram rewards, and the
// scheduler's half of the flight recorder. Everything here is
// zero-cost when off — one nil test on the paths it instruments — and
// strictly read-only on the model (Peek, never Get), so attaching
// inspection cannot perturb the replication trajectory.

// InspectVCPU is a read-only snapshot of one VCPU's scheduling state,
// assembled from the slot (guest side), host state (hypervisor side),
// and fault runtime.
type InspectVCPU struct {
	VM            int
	Sibling       int
	Status        Status
	RemainingLoad int64
	SyncPoint     bool
	PCPU          int // assigned PCPU, or -1
	Stalled       bool
}

// NumVCPUs returns the system's total VCPU count (global index space).
func (s *System) NumVCPUs() int { return len(s.vcpus) }

// NumPCPUs returns the system's PCPU count.
func (s *System) NumPCPUs() int { return s.cfg.PCPUs }

// VCPUName returns the display name of VCPU i ("VM1.VCPU2").
func (s *System) VCPUName(i int) string {
	vc := s.vcpus[i]
	return s.cfg.VCPUName(vc.vm, vc.sibling)
}

// InspectVCPU fills dst with VCPU i's current state. It reads through
// Peek only and never allocates, so probes may call it from fire hooks
// at event rate.
func (s *System) InspectVCPU(i int, dst *InspectVCPU) {
	vc := s.vcpus[i]
	slot := vc.slot.Peek()
	host := vc.host.Peek()
	dst.VM = vc.vm
	dst.Sibling = vc.sibling
	dst.Status = slot.Status
	dst.RemainingLoad = slot.RemainingLoad
	dst.SyncPoint = slot.SyncPoint
	dst.PCPU = host.PCPU
	dst.Stalled = s.flt != nil && s.flt.stalled[i]
}

// InspectPCPU fills dst with PCPU i's current state (Peek only, no
// allocation).
func (s *System) InspectPCPU(i int, dst *PCPUView) {
	dst.ID = i
	dst.VCPU = (*s.pcpus.Peek())[i]
	dst.Down = false
	dst.Throttle = 0
	if s.flt != nil {
		dst.Down = s.flt.down[i]
		dst.Throttle = s.flt.throttle[i]
	}
}

// coreHists holds the opt-in distribution rewards: dispatch wait time
// (ticks a VCPU holds work without a PCPU before the scheduler places
// it), ready-queue depth (VCPUs with work but no PCPU, sampled every
// scheduler tick), and injected stall durations in ticks. nil on a
// System unless Worker.EnableHistograms was called; the record sites
// are nil-gated.
type coreHists struct {
	wait  obs.Histogram
	queue obs.Histogram
	stall obs.Histogram
	// waitSince[v] is the tick VCPU v was first observed holding work
	// without a PCPU, -1 while it is idle or placed. The wait sample is
	// taken when the scheduler's assignment lands.
	waitSince []int64
}

// reset rewinds all distributions for the next replication.
func (h *coreHists) reset() {
	h.wait.Reset()
	h.queue.Reset()
	h.stall.Reset()
	for i := range h.waitSince {
		h.waitSince[i] = -1
	}
}

// Histogram metric base names and the derived per-replication quantile
// metrics a histogram-enabled Worker adds to its result map
// ("hist/wait/p95" and so on).
const (
	WaitHist  = "wait"
	QueueHist = "queue"
	StallHist = "stall"
)

// HistMetric names the derived quantile metric of one histogram, e.g.
// HistMetric(WaitHist, "p95") == "hist/wait/p95".
func HistMetric(base, stat string) string { return "hist/" + base + "/" + stat }

// addHistMetrics folds one replication's histogram digests into the
// metric map as derived metrics.
func addHistMetrics(out map[string]float64, h *coreHists) {
	for _, e := range []struct {
		base string
		h    *obs.Histogram
	}{{WaitHist, &h.wait}, {QueueHist, &h.queue}, {StallHist, &h.stall}} {
		s := e.h.Summary()
		out[HistMetric(e.base, "p50")] = s.P50
		out[HistMetric(e.base, "p95")] = s.P95
		out[HistMetric(e.base, "p99")] = s.P99
		out[HistMetric(e.base, "mean")] = s.Mean
		out[HistMetric(e.base, "count")] = float64(s.Count)
	}
}

// EnableHistograms turns on the worker's distribution rewards. Each
// replication then records dispatch-wait, queue-depth, and
// stall-duration samples and reports hist/* quantile metrics alongside
// the model's mean rewards; CollectHistograms merges the raw
// distributions across replications. Off by default so the metric maps
// (and allocation profile) of existing runs are unchanged.
func (w *Worker) EnableHistograms() {
	if w.sys.hist == nil {
		h := &coreHists{waitSince: make([]int64, len(w.sys.vcpus))}
		h.reset()
		w.sys.hist = h
	}
}

// CollectHistograms merges the most recent replication's distributions
// into acc (no-op when histograms are off).
func (w *Worker) CollectHistograms(acc *obs.HistAccumulator) {
	h := w.sys.hist
	if h == nil || acc == nil {
		return
	}
	acc.Add(WaitHist, &h.wait)
	acc.Add(QueueHist, &h.queue)
	acc.Add(StallHist, &h.stall)
}

// Instance returns the worker's pooled SAN instance so read-only
// instrumentation (fire hooks, probes, timelines) can attach to it.
// Callers must not mutate the marking or run the instance themselves.
func (w *Worker) Instance() *san.Instance { return w.inst }

// SetFlightRecorder attaches one flight recorder across the worker's
// layers: the SAN executive records firings, the scheduler records
// applied decisions, and the fault injector records inject/recover
// transitions — all into the same bounded ring, dumped on any model
// error, livelock, or cancelled replication. nil detaches.
func (w *Worker) SetFlightRecorder(fr *obs.FlightRecorder) {
	w.inst.SetFlightRecorder(fr)
	w.sys.rec = fr
	if w.sys.inj != nil {
		w.sys.inj.SetFlightRecorder(fr)
	}
	if fr == nil {
		return
	}
	fr.SetLabel(obs.FlightDecision, func(code int32, arg int64) string {
		v, p := int(uint32(arg)), int(arg>>32)
		if code == 1 {
			return fmt.Sprintf("sched preempt VCPU%d off PCPU%d", v, p)
		}
		return fmt.Sprintf("sched assign VCPU%d -> PCPU%d", v, p)
	})
	if plan := w.sys.cfg.Faults; plan != nil {
		fr.SetLabel(obs.FlightFault, func(code int32, arg int64) string {
			name := fmt.Sprintf("#%d", arg)
			if i := int(arg); i >= 0 && i < len(plan.Faults) {
				name = plan.Faults[i].Name
			}
			if code == 1 {
				return "fault recover " + name
			}
			return "fault inject " + name
		})
	}
}
