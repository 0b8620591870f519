package sched

import (
	"reflect"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
)

func newRCS(ts, enter, exit int64) *RelaxedCo {
	return NewRelaxedCo(RelaxedCoParams{Timeslice: ts, EnterSkew: enter, ExitSkew: exit})
}

func TestRelaxedCoName(t *testing.T) {
	if got := NewRelaxedCo(RelaxedCoParams{Timeslice: 10}).Name(); got != "RCS" {
		t.Fatalf("name = %q", got)
	}
}

func TestRelaxedCoDefaults(t *testing.T) {
	r := NewRelaxedCo(RelaxedCoParams{Timeslice: 30})
	if r.enterSkew != 10 || r.exitSkew != 5 {
		t.Fatalf("defaults enter=%d exit=%d, want 10/5", r.enterSkew, r.exitSkew)
	}
	// Tiny timeslices still give positive thresholds.
	r = NewRelaxedCo(RelaxedCoParams{Timeslice: 1})
	if r.enterSkew < 1 || r.exitSkew < 0 {
		t.Fatalf("tiny timeslice thresholds enter=%d exit=%d", r.enterSkew, r.exitSkew)
	}
}

func TestRelaxedCoSingleStartWhenCoStartImpossible(t *testing.T) {
	// Unlike SCS, RCS schedules a 2-VCPU VM on one PCPU via single starts.
	h := newHarness(t, newRCS(30, 10, 5), 1, 2)
	h.run(100)
	if h.vcpus[0].Runtime == 0 && h.vcpus[1].Runtime == 0 {
		t.Fatal("RCS never single-started the gang on one PCPU")
	}
}

func TestRelaxedCoFigure8Penalty(t *testing.T) {
	// The paper's Figure 8 one-PCPU observation: the 2-VCPU VM runs but
	// its VCPUs receive clearly less than the 1-VCPU VMs'.
	h := newHarness(t, newRCS(30, 10, 5), 1, 2, 1, 1)
	h.run(12000)
	s := h.shares()
	pair := (s[0] + s[1]) / 2
	singles := (s[2] + s[3]) / 2
	if pair <= 0 {
		t.Fatalf("pair starved entirely: %v", fmtShares(s))
	}
	if pair >= singles*0.8 {
		t.Fatalf("no skew penalty: pair %.3f vs singles %.3f", pair, singles)
	}
}

func TestRelaxedCoFairWhenProvisioned(t *testing.T) {
	// With PCPUs = VCPUs everyone runs constantly; no skew accrues.
	h := newHarness(t, newRCS(30, 10, 5), 4, 2, 1, 1)
	h.run(1000)
	for id := 0; id < 4; id++ {
		h.assertShare(id, 1, 0.01)
	}
}

func TestRelaxedCoFairPairOfPairs(t *testing.T) {
	// Two 2-VCPU VMs on 2 PCPUs: natural co-run alternation, no skew.
	h := newHarness(t, newRCS(30, 10, 5), 2, 2, 2)
	h.run(4000)
	for id := 0; id < 4; id++ {
		h.assertShare(id, 0.5, 0.03)
	}
}

func TestRelaxedCoSkewAccrualAndDecay(t *testing.T) {
	r := newRCS(10, 100, 50) // thresholds high enough to stay out of co-mode
	vcpus := []core.VCPUView{
		{ID: 0, VM: 0, Sibling: 0, Status: core.Ready, PCPU: 0},
		{ID: 1, VM: 0, Sibling: 1, Status: core.Inactive, PCPU: -1},
	}
	pcpus := []core.PCPUView{{ID: 0, VCPU: 0}}
	for i := 0; i < 5; i++ {
		var acts core.Actions
		r.Schedule(int64(i), vcpus, pcpus, &acts)
	}
	if got := r.Skew(1); got != 5 {
		t.Fatalf("skew after 5 starved ticks = %d, want 5", got)
	}
	if got := r.Skew(0); got != 0 {
		t.Fatalf("running VCPU skew = %d, want 0", got)
	}
	// Whole gang stopped: skew decays. Keep the PCPU marked busy so the
	// assignment phase stays idle and only the skew update runs.
	vcpus[0].Status = core.Inactive
	vcpus[0].PCPU = -1
	pcpus[0].VCPU = 99
	for i := 5; i < 8; i++ {
		var acts core.Actions
		r.Schedule(int64(i), vcpus, pcpus, &acts)
	}
	if got := r.Skew(1); got != 2 {
		t.Fatalf("skew after 3 decay ticks = %d, want 2", got)
	}
}

func TestRelaxedCoCoStopPreemptsRunner(t *testing.T) {
	// One PCPU, gang of two: once the descheduled sibling's skew crosses
	// the enter threshold, the running sibling must be co-stopped.
	r := newRCS(100, 5, 2)
	h := newHarness(t, r, 1, 2)
	// v0 gets the PCPU at t=0 (queue head). With enter skew 5, the
	// co-stop must strike well before the 100-tick timeslice.
	for i := 0; i < 100; i++ {
		h.tick()
		if !h.active(0) && h.now > 1 {
			if h.now >= 100 {
				t.Fatal("co-stop never happened")
			}
			if h.vcpus[0].Runtime > 10 {
				t.Fatalf("co-stop too late: runtime %d with enter skew 5", h.vcpus[0].Runtime)
			}
			return
		}
	}
	t.Fatal("v0 ran the full horizon despite sibling starvation")
}

func TestRelaxedCoForcedCoStart(t *testing.T) {
	// 2 PCPUs, one gang of two plus two singles. Drive the gang into
	// co-mode, then verify the gang returns only via a co-start (both
	// siblings in the same tick).
	r := newRCS(20, 5, 2)
	h := newHarness(t, r, 2, 2, 1, 1)
	sawSplitStart := false
	prevActive := [2]bool{}
	for i := 0; i < 2000; i++ {
		h.tick()
		nowActive := [2]bool{h.active(0), h.active(1)}
		// Find gang transitions from fully inactive to partially active
		// while in co-mode.
		if r.coMode != nil && r.coMode[0] {
			if !prevActive[0] && !prevActive[1] && (nowActive[0] != nowActive[1]) {
				sawSplitStart = true
			}
		}
		prevActive = nowActive
	}
	if sawSplitStart {
		t.Fatal("gang single-started while in co-mode (forced co-start violated)")
	}
	if h.vcpus[0].Runtime == 0 {
		t.Fatal("gang never ran")
	}
}

func TestRelaxedCoOpportunisticCoStart(t *testing.T) {
	// Out of co-mode with enough idle PCPUs, a fully inactive gang is
	// co-started in one tick.
	r := newRCS(10, 50, 25)
	h := newHarness(t, r, 2, 2)
	h.tick()
	if !h.active(0) || !h.active(1) {
		t.Fatal("gang not co-started with ample PCPUs")
	}
	if h.vcpus[0].LastScheduledIn != h.vcpus[1].LastScheduledIn {
		t.Fatal("gang members started at different times")
	}
}

func TestRelaxedCoSkewAccessorBounds(t *testing.T) {
	r := newRCS(10, 5, 2)
	if r.Skew(-1) != 0 || r.Skew(99) != 0 {
		t.Fatal("out-of-range skew should be 0")
	}
}

// TestRelaxedCoLoneVCPUNeverSkews: a one-VCPU VM has no sibling to run
// ahead of it, so however long it waits its skew stays zero and it never
// enters co-mode, even at the lowest enter threshold (1, with exit 0),
// while the 2-VCPU VM beside it does.
func TestRelaxedCoLoneVCPUNeverSkews(t *testing.T) {
	r := newRCS(30, 1, 0)
	if r.enterSkew != 1 || r.exitSkew != 0 {
		t.Fatalf("thresholds enter=%d exit=%d, want 1/0", r.enterSkew, r.exitSkew)
	}
	h := newHarness(t, r, 1, 2, 1, 1)
	pairCoMode := false
	for i := 0; i < 3000; i++ {
		h.tick()
		for _, id := range []int{2, 3} {
			if got := r.Skew(id); got != 0 {
				t.Fatalf("t=%d: lone VCPU %d skew = %d, want 0", h.now, id, got)
			}
		}
		if r.coMode[1] || r.coMode[2] {
			t.Fatalf("t=%d: a one-VCPU VM entered co-mode", h.now)
		}
		pairCoMode = pairCoMode || r.coMode[0]
	}
	if !pairCoMode {
		t.Fatal("the 2-VCPU VM never entered co-mode: the lone VCPUs were never starved beside a skewing gang")
	}
}

// refUpdateSkews is RCS's two-pass skew update: every gang's skews first,
// then every gang's enter/exit hysteresis. It is the reference the
// one-pass updateSkews must equal.
func refUpdateSkews(gangs *core.Gangs, skew []int64, coMode []bool, enter, exit int64, vcpus []core.VCPUView) {
	for vi := 0; vi < gangs.Len(); vi++ {
		gang := gangs.Members(vi)
		anyActive := false
		for _, id := range gang {
			if vcpus[id].Status.Active() {
				anyActive = true
				break
			}
		}
		for _, id := range gang {
			if !vcpus[id].Status.Active() && anyActive {
				skew[id]++
			} else if skew[id] > 0 {
				skew[id]--
			}
		}
	}
	for vi := range coMode {
		var max int64
		for _, id := range gangs.Members(vi) {
			if skew[id] > max {
				max = skew[id]
			}
		}
		if max > enter {
			coMode[vi] = true
		} else if max < exit {
			coMode[vi] = false
		}
	}
}

// TestRelaxedCoOnePassSkewMatchesTwoPass drives the one-pass update and
// the two-pass reference with the same random status sequences, over
// random gang shapes and skew thresholds (EnterSkew 1 with ExitSkew 0
// included), and requires equal skews and co-modes after every tick.
func TestRelaxedCoOnePassSkewMatchesTwoPass(t *testing.T) {
	src := rng.New(25)
	statuses := [...]core.Status{core.Inactive, core.Ready, core.Busy}
	var enters, exits int
	for trial := 0; trial < 300; trial++ {
		var vcpus []core.VCPUView
		for vm, n := 0, 1+src.Intn(5); vm < n; vm++ {
			for k, size := 0, 1+src.Intn(4); k < size; k++ {
				vcpus = append(vcpus, core.VCPUView{ID: len(vcpus), VM: vm, Sibling: k, PCPU: -1, LastScheduledIn: -1})
			}
		}
		p := RelaxedCoParams{Timeslice: 30, EnterSkew: 1 + int64(src.Intn(8))}
		if trial%3 == 0 {
			p.EnterSkew = 1 // the default exit is then 0
		} else {
			p.ExitSkew = 1 + int64(src.Intn(int(p.EnterSkew)))
		}
		r := NewRelaxedCo(p)
		// One Schedule call on an all-inactive host derives the gangs and
		// sizes the state; the reference starts from the same zeros.
		var acts core.Actions
		r.Schedule(0, vcpus, nil, &acts)
		skew := make([]int64, len(vcpus))
		coMode := make([]bool, r.gangs.Len())
		refUpdateSkews(&r.gangs, skew, coMode, r.enterSkew, r.exitSkew, vcpus)

		for tick := 1; tick <= 200; tick++ {
			// Sticky statuses, so skews build up and decay over runs of
			// ticks instead of hovering at zero.
			for i := range vcpus {
				if src.Intn(5) == 0 {
					vcpus[i].Status = statuses[src.Intn(len(statuses))]
				}
			}
			was := append([]bool(nil), coMode...)
			r.updateSkews(vcpus)
			refUpdateSkews(&r.gangs, skew, coMode, r.enterSkew, r.exitSkew, vcpus)
			for vi := range coMode {
				switch {
				case coMode[vi] && !was[vi]:
					enters++
				case !coMode[vi] && was[vi]:
					exits++
				}
			}
			if !reflect.DeepEqual(r.skew, skew) || !reflect.DeepEqual(r.coMode, coMode) {
				t.Fatalf("trial %d (enter %d, exit %d), tick %d: one pass skew %v co-mode %v, two passes skew %v co-mode %v",
					trial, r.enterSkew, r.exitSkew, tick, r.skew, r.coMode, skew, coMode)
			}
		}
	}
	if enters == 0 || exits == 0 {
		t.Fatalf("co-mode entered %d and left %d times: the sequences never crossed the thresholds", enters, exits)
	}
}
