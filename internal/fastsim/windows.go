package fastsim

import (
	"fmt"

	"vcpusim/internal/core"
)

// counters is a snapshot of the engine's reward accumulators, used to
// compute per-window deltas.
type counters struct {
	active  []int64
	busy    []int64
	pcpu    []int64
	blocked int64
	spin    int64
	work    int64
	sampled int64
}

func (e *Engine) snapshot() counters {
	return counters{
		active:  append([]int64(nil), e.activeTicks...),
		busy:    append([]int64(nil), e.busyTicks...),
		pcpu:    append([]int64(nil), e.pcpuTicks...),
		blocked: e.blockedTicks,
		spin:    e.spinTicks,
		work:    e.workTicks,
		sampled: e.sampled,
	}
}

// windowMetrics converts the delta between two snapshots into the standard
// metric map.
func (e *Engine) windowMetrics(from, to counters) map[string]float64 {
	t := float64(to.sampled - from.sampled)
	out := make(map[string]float64, 2*len(e.vcpus)+len(e.pcpus)+6)
	var sumActive, sumBusy, sumPCPU float64
	for id := range e.vcpus {
		v := &e.vcpus[id]
		avail := float64(to.active[id]-from.active[id]) / t
		busy := float64(to.busy[id]-from.busy[id]) / t
		out[core.AvailabilityMetric(v.VM, v.Sibling)] = avail
		out[core.VCPUUtilizationMetric(v.VM, v.Sibling)] = busy
		sumActive += avail
		sumBusy += busy
	}
	for p := range e.pcpus {
		u := float64(to.pcpu[p]-from.pcpu[p]) / t
		out[core.PCPUUtilizationMetric(p)] = u
		sumPCPU += u
	}
	out[core.AvailabilityAvgMetric] = sumActive / float64(len(e.vcpus))
	out[core.VCPUUtilizationAvgMetric] = sumBusy / float64(len(e.vcpus))
	out[core.PCPUUtilizationAvgMetric] = sumPCPU / float64(len(e.pcpus))
	out[core.BlockedFractionMetric] = float64(to.blocked-from.blocked) / t / float64(len(e.vms))
	out[core.SpinFractionMetric] = float64(to.spin-from.spin) / t / float64(len(e.vcpus))
	out[core.EffectiveUtilizationMetric] = float64(to.work-from.work) / t / float64(len(e.vcpus))
	return out
}

// RunWindowed simulates horizon ticks (after discarding a warmup prefix)
// and returns the metric map of every consecutive window of `window`
// ticks — the raw material for single-run steady-state estimation via the
// method of batch means (sim.BatchMeans). The measured span
// (horizon - warmup) must be a positive multiple of window.
func (e *Engine) RunWindowed(warmup, horizon, window int64) ([]map[string]float64, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("fastsim: non-positive horizon %d", horizon)
	}
	if warmup < 0 || warmup >= horizon {
		return nil, fmt.Errorf("fastsim: warmup %d outside [0, horizon %d)", warmup, horizon)
	}
	if window <= 0 || (horizon-warmup)%window != 0 {
		return nil, fmt.Errorf("fastsim: window %d must positively divide the measured span %d", window, horizon-warmup)
	}
	e.warmup = warmup

	var out []map[string]float64
	last := e.snapshot()
	flush := func() {
		cur := e.snapshot()
		if cur.sampled-last.sampled == window {
			out = append(out, e.windowMetrics(last, cur))
			last = cur
		}
	}

	if err := e.hypervisorStep(); err != nil {
		return nil, err
	}
	e.jobFlow()
	e.sample()
	e.now++
	flush()

	for ; e.now < horizon; e.now++ {
		e.process()
		e.jobFlow()
		if err := e.hypervisorStep(); err != nil {
			return nil, err
		}
		e.jobFlow()
		e.sample()
		flush()
	}
	return out, nil
}
