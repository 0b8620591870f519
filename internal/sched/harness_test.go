package sched

import (
	"fmt"
	"testing"

	"vcpusim/internal/core"
)

// harness is a miniature of the framework's hypervisor step used to unit
// test schedulers in isolation: no workloads, every VCPU always wants a
// PCPU, statuses are READY or INACTIVE. It mirrors the engine's tick
// ordering (runtime accounting, timeslice expiry, scheduling function,
// action application with validation). Like the engines it hands the
// scheduler reused view buffers and one reused Actions, so a tick
// allocates only what the scheduler does. The buffers are copies of the
// harness state, so every tick also checks the core.Scheduler contract:
// Schedule must leave every view field as it found it, because the fast
// engine hands its live state.
type harness struct {
	t     *testing.T
	vcpus []core.VCPUView
	pcpus []core.PCPUView
	sched core.Scheduler
	now   int64

	vbuf []core.VCPUView
	pbuf []core.PCPUView
	acts core.Actions
}

// newHarness builds a harness with the given VM sizes (VCPUs per VM).
func newHarness(t *testing.T, s core.Scheduler, pcpus int, vmSizes ...int) *harness {
	t.Helper()
	h := &harness{t: t, sched: s}
	id := 0
	for vm, size := range vmSizes {
		for k := 0; k < size; k++ {
			h.vcpus = append(h.vcpus, core.VCPUView{
				ID: id, VM: vm, Sibling: k,
				Status: core.Inactive, PCPU: -1, LastScheduledIn: -1,
			})
			id++
		}
	}
	for p := 0; p < pcpus; p++ {
		h.pcpus = append(h.pcpus, core.PCPUView{ID: p, VCPU: -1})
	}
	return h
}

// tick advances one hypervisor step.
func (h *harness) tick() {
	h.t.Helper()
	if h.now > 0 {
		for i := range h.vcpus {
			v := &h.vcpus[i]
			if v.PCPU < 0 {
				continue
			}
			v.Runtime++
			v.Timeslice--
			if v.Timeslice <= 0 {
				h.deschedule(i)
			}
		}
	}
	h.vbuf = append(h.vbuf[:0], h.vcpus...)
	h.pbuf = append(h.pbuf[:0], h.pcpus...)
	h.acts.Reset()
	h.sched.Schedule(h.now, h.vbuf, h.pbuf, &h.acts)
	for i := range h.vcpus {
		if h.vbuf[i] != h.vcpus[i] {
			h.t.Fatalf("t=%d: %s modified VCPU view %d: %+v, was %+v", h.now, h.sched.Name(), i, h.vbuf[i], h.vcpus[i])
		}
	}
	for i := range h.pcpus {
		if h.pbuf[i] != h.pcpus[i] {
			h.t.Fatalf("t=%d: %s modified PCPU view %d: %+v, was %+v", h.now, h.sched.Name(), i, h.pbuf[i], h.pcpus[i])
		}
	}
	assigns, preempts := h.acts.Recorded()
	for _, id := range preempts {
		if id < 0 || id >= len(h.vcpus) || h.vcpus[id].PCPU < 0 {
			h.t.Fatalf("t=%d: invalid preempt of VCPU %d", h.now, id)
		}
		h.deschedule(id)
	}
	for _, a := range assigns {
		switch {
		case a.VCPU < 0 || a.VCPU >= len(h.vcpus):
			h.t.Fatalf("t=%d: assign of unknown VCPU %d", h.now, a.VCPU)
		case a.PCPU < 0 || a.PCPU >= len(h.pcpus):
			h.t.Fatalf("t=%d: assign to unknown PCPU %d", h.now, a.PCPU)
		case a.Timeslice < 1:
			h.t.Fatalf("t=%d: non-positive timeslice %d", h.now, a.Timeslice)
		case h.vcpus[a.VCPU].PCPU >= 0:
			h.t.Fatalf("t=%d: double assignment of VCPU %d", h.now, a.VCPU)
		case h.pcpus[a.PCPU].VCPU >= 0:
			h.t.Fatalf("t=%d: assignment to busy PCPU %d", h.now, a.PCPU)
		}
		v := &h.vcpus[a.VCPU]
		v.PCPU = a.PCPU
		v.Timeslice = a.Timeslice
		v.LastScheduledIn = h.now
		v.Status = core.Ready
		h.pcpus[a.PCPU].VCPU = a.VCPU
	}
	h.now++
}

// skip lets a scheduler that is a core.TickSkipper stand in for the
// Schedule calls of the quiet ticks ahead, as the fast engine does: it
// asks for at most 50 ticks, and never for the tick in which a timeslice
// expires. Like tick, it fails if SkipTicks changes a view. It advances
// the ticks skipped and returns their number.
func (h *harness) skip() int64 {
	h.t.Helper()
	ts, ok := h.sched.(core.TickSkipper)
	if !ok {
		return 0
	}
	limit := int64(50)
	for _, v := range h.vcpus {
		if v.PCPU >= 0 {
			limit = min(limit, v.Timeslice-1)
		}
	}
	if limit <= 0 {
		return 0
	}
	h.vbuf = append(h.vbuf[:0], h.vcpus...)
	h.pbuf = append(h.pbuf[:0], h.pcpus...)
	n := ts.SkipTicks(h.vbuf, h.pbuf, limit)
	for i := range h.vcpus {
		if h.vbuf[i] != h.vcpus[i] {
			h.t.Fatalf("t=%d: %s SkipTicks modified VCPU view %d: %+v, was %+v", h.now, h.sched.Name(), i, h.vbuf[i], h.vcpus[i])
		}
	}
	for i := range h.pcpus {
		if h.pbuf[i] != h.pcpus[i] {
			h.t.Fatalf("t=%d: %s SkipTicks modified PCPU view %d: %+v, was %+v", h.now, h.sched.Name(), i, h.pbuf[i], h.pcpus[i])
		}
	}
	if n < 0 || n > limit {
		h.t.Fatalf("t=%d: %s SkipTicks(%d) = %d", h.now, h.sched.Name(), limit, n)
	}
	for i := range h.vcpus {
		if v := &h.vcpus[i]; v.PCPU >= 0 {
			v.Runtime += n
			v.Timeslice -= n
		}
	}
	h.now += n
	return n
}

func (h *harness) deschedule(id int) {
	v := &h.vcpus[id]
	h.pcpus[v.PCPU].VCPU = -1
	v.PCPU = -1
	v.Timeslice = 0
	v.Status = core.Inactive
}

// run advances n ticks.
func (h *harness) run(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.tick()
	}
}

// active reports whether VCPU id currently holds a PCPU.
func (h *harness) active(id int) bool { return h.vcpus[id].PCPU >= 0 }

// shares returns each VCPU's runtime share of elapsed time.
func (h *harness) shares() []float64 {
	out := make([]float64, len(h.vcpus))
	for i, v := range h.vcpus {
		out[i] = float64(v.Runtime) / float64(h.now-1)
	}
	return out
}

// assertShare checks one VCPU's runtime share within tolerance.
func (h *harness) assertShare(id int, want, tol float64) {
	h.t.Helper()
	got := h.shares()[id]
	if got < want-tol || got > want+tol {
		h.t.Errorf("VCPU %d share = %.3f, want %.3f ±%.3f (all: %v)",
			id, got, want, tol, fmtShares(h.shares()))
	}
}

func fmtShares(s []float64) string {
	out := "["
	for i, v := range s {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", v)
	}
	return out + "]"
}

// TestScheduleLeavesViewsUnchanged runs every registered scheduler on
// under-, fully and over-committed hosts through the harness, whose tick
// fails if Schedule changes any field of the views it was handed. A second
// pass on a fresh harness lets RRS, SCS and RCS skip the quiet ticks
// between Schedule calls, and the harness's skip fails the same way for
// SkipTicks. The views also carry nonzero values in the fields no built-in
// scheduler reads (a held workload, a stall, a throttle), so a write that
// clears one shows too.
func TestScheduleLeavesViewsUnchanged(t *testing.T) {
	hosts := []struct {
		pcpus   int
		vmSizes []int
	}{
		{1, []int{2, 1, 1}},
		{2, []int{2, 1, 1}},
		{4, []int{2, 2, 1}},
		{4, []int{2, 1}},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f, err := Factory(name, Params{Timeslice: 5, EnterSkew: 4, ExitSkew: 2, ConcurrentVMs: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			for _, host := range hosts {
				build := func() *harness {
					h := newHarness(t, f(), host.pcpus, host.vmSizes...)
					for i := range h.vcpus {
						v := &h.vcpus[i]
						v.RemainingLoad, v.SyncPoint, v.Stalled = int64(7*i+3), i%2 == 0, i%3 == 0
					}
					for p := range h.pcpus {
						h.pcpus[p].Throttle = 0.5
					}
					return h
				}
				build().run(300)
				h := build()
				if _, ok := h.sched.(core.TickSkipper); !ok {
					continue
				}
				var skipped int64
				for h.now < 300 {
					h.tick()
					skipped += h.skip()
				}
				if skipped == 0 {
					t.Errorf("%d PCPUs, VMs %v: SkipTicks never skipped a tick", host.pcpus, host.vmSizes)
				}
			}
		})
	}
}
