package san

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// TestRunnerSingleUse verifies that a Runner refuses a second run: the model
// marking is left at the first run's final state, so re-running would
// silently simulate from a stale marking.
func TestRunnerSingleUse(t *testing.T) {
	m := NewModel("single")
	s := m.Sub("s")
	p := s.Place("p", 1)
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() {})
	act.Link(LinkInput, p.Name())

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("second Run: err = %v, want the runner-already-used error", err)
	}
	// Argument validation still comes first: the error for a bad horizon
	// names the bad horizon, not the used runner.
	if _, err := r.Run(-1); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("bad horizon on used runner: err = %v, want the horizon error", err)
	}
}

// TestRunnerSingleUseAfterFailure verifies the guard also covers a first
// run that failed mid-way: its marking is even less trustworthy.
func TestRunnerSingleUseAfterFailure(t *testing.T) {
	m := NewModel("singlefail")
	s := m.Sub("s")
	p := s.Place("p", 0)
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() { p.SetTokens(-1) })
	act.Link(LinkOutput, p.Name())

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil {
		t.Fatal("negative marking did not fail the run")
	}
	if _, err := r.Run(10); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("rerun after failure: err = %v, want the runner-already-used error", err)
	}
}

// TestFireStopsAfterInputGateFailure seeds a defect in an input gate, an
// output arc that overflows its place's declared capacity, and verifies
// the rest of the firing is skipped: the later arcs and the output gate
// must not run and the activity's impulse rewards must not accumulate once
// the replication is doomed. It runs on both firing paths: the arcs
// applied by the executor, and through Place.Add when an arc leaves the
// model.
func TestFireStopsAfterInputGateFailure(t *testing.T) {
	for _, foreign := range []bool{false, true} {
		m := NewModel("bailinput")
		s := m.Sub("s")
		p := s.Place("p", 1).SetCapacity(1)
		after := s.Place("after", 0)
		outputRan := false
		act := s.TimedActivity("act", rng.Deterministic{Value: 1})
		if foreign {
			act.OutputArc(NewModel("other").Sub("o").Place("q", 0), 1)
		}
		act.OutputArc(p, 1) // records the fatal error
		act.OutputArc(after, 1)
		act.AddCase(nil, func() { outputRan = true })
		m.AddImpulseReward("count", act, nil)

		r, err := NewRunner(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(100); err == nil {
			t.Fatalf("foreign=%v: defective input gate did not fail the run", foreign)
		}
		if after.Tokens() != 0 {
			t.Errorf("foreign=%v: an arc after the failing one ran", foreign)
		}
		if outputRan {
			t.Errorf("foreign=%v: output gate ran after the input gate recorded a fatal error", foreign)
		}
		if r.impulses[0] != 0 {
			t.Errorf("foreign=%v: impulse accumulated %g after the failure, want 0", foreign, r.impulses[0])
		}
	}
}

// TestFireStopsAfterCaseFailure seeds a defect in case selection (all case
// weights zero) and verifies no output gate runs on the failed firing.
func TestFireStopsAfterCaseFailure(t *testing.T) {
	m := NewModel("bailcase")
	s := m.Sub("s")
	p := s.Place("p", 1)
	outputs := 0
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(func() float64 { return 0 }, func() { outputs++ })
	act.AddCase(func() float64 { return 0 }, func() { outputs++ })
	act.Link(LinkInput, p.Name())

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(100); err == nil || !strings.Contains(err.Error(), "weights zero") {
		t.Fatalf("err = %v, want the zero-weights error", err)
	}
	if outputs != 0 {
		t.Errorf("an output gate ran %d times after case selection failed, want 0", outputs)
	}
}

// TestRunIntervalContextCancelled verifies a cancelled context interrupts
// the event loop after at most the check interval, not at the horizon.
func TestRunIntervalContextCancelled(t *testing.T) {
	m := NewModel("cancel")
	s := m.Sub("s")
	p := s.Place("p", 1)
	fired := 0
	act := s.TimedActivity("act", rng.Deterministic{Value: 1})
	act.AddCase(nil, func() { fired++ })
	act.Link(LinkInput, p.Name())

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Horizon of 10M events; a cancelled context must stop the loop within
	// one check interval.
	_, err = r.RunIntervalContext(ctx, 0, 1e7)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if fired > 2*ctxCheckInterval {
		t.Errorf("loop ran %d events after cancellation, want at most ~%d", fired, ctxCheckInterval)
	}
	if fired == 0 {
		t.Error("loop never started; cancellation should interrupt, not pre-empt validation")
	}
}

// TestRunnerSteadyStateAllocFree verifies the tentpole's allocation
// contract: once the event loop is running, firings allocate nothing, so
// total allocations are independent of the horizon. Two identical models
// run for 1x and 10x the horizon; the allocation difference must stay at
// the (constant) warmup/result overhead, far below one alloc per event.
func TestRunnerSteadyStateAllocFree(t *testing.T) {
	run := func(horizon float64) uint64 {
		m := buildTandem(4)
		r, err := NewRunner(m, 7)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.Run(horizon)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events < uint64(horizon) {
			t.Fatalf("only %d events over horizon %g; model too idle for the test", res.Events, horizon)
		}
		return after.Mallocs - before.Mallocs
	}
	short := run(500)
	long := run(5000)
	// ~9x more events; allow slack for incidental runtime allocations, but
	// a single alloc-per-event regression would add thousands.
	extra := int64(long) - int64(short)
	if extra > 500 {
		t.Errorf("10x horizon cost %d extra allocations; the event loop is no longer allocation-free", extra)
	}
}
