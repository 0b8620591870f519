package core_test

import (
	"context"
	"strconv"
	"testing"

	"vcpusim/internal/core"
)

// TestStepPrimitiveEquivalence pins the step-primitive decomposition:
// driving a replication through an external
//
//	BeginRun; for HasPendingEvents { ProcessNextEvent }; EndRun
//
// loop must reproduce RunIntervalContext bit for bit — same trajectory,
// same reward bits — on the healthy Figure 8 cases AND the full fault
// campaign. This is the contract the cluster orchestrator stands on:
// stepping a host event-by-event from outside is indistinguishable from
// the monolithic run loop.
func TestStepPrimitiveEquivalence(t *testing.T) {
	cases := append(goldenCases(), goldenFaultCases()...)
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg

			// Reference: the monolithic run loop.
			wRef, err := core.NewWorker(cfg, gc.factory)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wRef.RunIntervalContext(context.Background(), 0, gc.horizon, gc.seed)
			if err != nil {
				t.Fatal(err)
			}

			// Candidate: the externally stepped loop.
			wStep, err := core.NewWorker(cfg, gc.factory)
			if err != nil {
				t.Fatal(err)
			}
			if err := wStep.Arm(gc.seed); err != nil {
				t.Fatal(err)
			}
			inst := wStep.Instance()
			if err := inst.BeginRun(0, gc.horizon); err != nil {
				t.Fatal(err)
			}
			steps := 0
			for inst.HasPendingEvents() {
				if next := inst.PeekNextEventTime(); next >= gc.horizon {
					t.Fatalf("HasPendingEvents true with next event at %g >= horizon %g", next, gc.horizon)
				}
				if err := inst.ProcessNextEvent(); err != nil {
					t.Fatalf("step %d: %v", steps, err)
				}
				steps++
			}
			got, err := wStep.Collect()
			if err != nil {
				t.Fatal(err)
			}

			if steps == 0 {
				t.Fatal("external loop processed no events")
			}
			if len(got) != len(want) {
				t.Errorf("metric count %d, want %d", len(got), len(want))
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Errorf("metric %s missing from stepped run", name)
					continue
				}
				wx := strconv.FormatFloat(w, 'x', -1, 64)
				gx := strconv.FormatFloat(g, 'x', -1, 64)
				if wx != gx {
					t.Errorf("metric %s = %s, want %s (stepped loop diverged from RunIntervalContext)", name, gx, wx)
				}
			}
		})
	}
}

// TestStepPrimitivesReusable checks that a worker alternating between
// the two drive styles stays bit-stable: monolithic, stepped, monolithic
// again on one pooled instance, all three identical.
func TestStepPrimitivesReusable(t *testing.T) {
	gc := goldenCases()[0]
	w, err := core.NewWorker(gc.cfg, gc.factory)
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[string]float64 {
		m, err := w.RunIntervalContext(context.Background(), 0, gc.horizon, gc.seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := run()
	if err := w.Arm(gc.seed); err != nil {
		t.Fatal(err)
	}
	inst := w.Instance()
	if err := inst.BeginRun(0, gc.horizon); err != nil {
		t.Fatal(err)
	}
	for inst.HasPendingEvents() {
		inst.ProcessNextEvent()
	}
	stepped, err := w.Collect()
	if err != nil {
		t.Fatal(err)
	}
	second := run()
	for name, v := range first {
		if stepped[name] != v || second[name] != v {
			t.Errorf("metric %s drifted across drive styles: %x / %x / %x", name, v, stepped[name], second[name])
		}
	}
}

// TestBeginRunValidation keeps the decomposed entry point's error
// contract identical to the monolithic loop's.
func TestBeginRunValidation(t *testing.T) {
	gc := goldenCases()[0]
	w, err := core.NewWorker(gc.cfg, gc.factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Arm(1); err != nil {
		t.Fatal(err)
	}
	inst := w.Instance()
	if err := inst.BeginRun(0, -1); err == nil {
		t.Error("negative horizon accepted")
	}
	if err := inst.BeginRun(10, 5); err == nil {
		t.Error("warmup past horizon accepted")
	}
	if err := inst.BeginRun(0, 100); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
	// The arming is consumed: a second BeginRun without Reset must fail.
	if err := inst.BeginRun(0, 100); err == nil {
		t.Error("stale instance accepted a second BeginRun")
	}
}
