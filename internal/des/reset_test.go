package des

import (
	"fmt"
	"testing"
)

// driveKernel runs a fixed scenario on k and returns the firing trace.
// Same-time events with equal priority are scheduled in an order chosen
// to expose the sequence-number tie-break: a kernel whose seq counter
// did not restart at zero would still fire them FIFO, so the trace is
// compared against a fresh kernel's rather than a constant.
func driveKernel(t *testing.T, k *Kernel) []string {
	t.Helper()
	var trace []string
	rec := func(name string) Handler {
		return func() { trace = append(trace, fmt.Sprintf("%s@%g", name, k.Now())) }
	}
	for _, ev := range []struct {
		time     float64
		priority int
		name     string
	}{
		{5, 0, "a"},
		{5, 0, "b"}, // same (time, priority) as a: seq decides
		{3, 1, "c"},
		{3, 0, "d"}, // same time as c, higher priority fires first
		{8, 0, "e"},
	} {
		if _, err := k.Schedule(ev.time, ev.priority, ev.name, rec(ev.name)); err != nil {
			t.Fatalf("schedule %s: %v", ev.name, err)
		}
	}
	// One reusable event rescheduled mid-run, as the SAN executive does.
	re, err := k.NewEvent(0, "r", nil)
	if err == nil {
		t.Fatal("NewEvent accepted nil handler")
	}
	re, err = k.NewEvent(0, "r", func() { trace = append(trace, fmt.Sprintf("r@%g", k.Now())) })
	if err != nil {
		t.Fatalf("NewEvent: %v", err)
	}
	if err := k.ScheduleEventAt(re, 5); err != nil { // third event at t=5, prio 0
		t.Fatalf("schedule reusable: %v", err)
	}
	k.RunUntil(10)
	return trace
}

func TestKernelResetIndistinguishableFromNew(t *testing.T) {
	fresh := NewKernel()
	want := driveKernel(t, fresh)

	reused := NewKernel()
	_ = driveKernel(t, reused)
	// Leave pending events behind so Reset has something to clear.
	leftover, err := reused.Schedule(100, 0, "leftover", func() { t.Error("leftover event fired after Reset") })
	if err != nil {
		t.Fatalf("schedule leftover: %v", err)
	}
	reused.Reset()

	if reused.Now() != 0 {
		t.Errorf("Now after Reset = %g, want 0", reused.Now())
	}
	if len(reused.queue) != 0 {
		t.Errorf("Len after Reset = %d, want 0", len(reused.queue))
	}
	if reused.Fired() != 0 {
		t.Errorf("Fired after Reset = %d, want 0", reused.Fired())
	}
	if leftover.Pending() {
		t.Error("pending event still marked pending after Reset")
	}

	got := driveKernel(t, reused)
	if len(got) != len(want) {
		t.Fatalf("reset kernel fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d: reset kernel %q, fresh %q", i, got[i], want[i])
		}
	}
	if fresh.Fired() != reused.Fired() {
		t.Errorf("fired counts differ: fresh %d, reset %d", fresh.Fired(), reused.Fired())
	}
}

func TestKernelResetSeqRestartsAtZero(t *testing.T) {
	// Two same-time same-priority events tie-break on sequence number.
	// After Reset the counter must restart at zero, or a reused kernel's
	// tie-breaks would diverge from a fresh kernel's once the counters
	// wrapped different histories.
	k := NewKernel()
	for i := 0; i < 1000; i++ {
		if _, err := k.Schedule(1, 0, "warm", func() {}); err != nil {
			t.Fatalf("schedule: %v", err)
		}
	}
	k.RunUntil(2)
	k.Reset()
	if k.seq != 0 {
		t.Fatalf("seq after Reset = %d, want 0", k.seq)
	}
	var order []string
	for _, name := range []string{"first", "second"} {
		name := name
		if _, err := k.Schedule(1, 0, name, func() { order = append(order, name) }); err != nil {
			t.Fatalf("schedule %s: %v", name, err)
		}
	}
	k.RunUntil(2)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("post-reset same-time order = %v, want [first second]", order)
	}
}

func TestKernelResetAllocFree(t *testing.T) {
	k := NewKernel()
	events := make([]*Event, 8)
	for i := range events {
		ev, err := k.NewEvent(0, "ev", func() {})
		if err != nil {
			t.Fatalf("NewEvent: %v", err)
		}
		events[i] = ev
	}
	fill := func() {
		for i, ev := range events {
			if err := k.ScheduleEventAt(ev, float64(i)); err != nil {
				t.Fatalf("schedule: %v", err)
			}
		}
	}
	fill()
	allocs := testing.AllocsPerRun(100, func() {
		k.Reset()
		fill()
	})
	// fill reuses pre-allocated events and the queue retains capacity, so
	// the reset+refill cycle must not allocate at all.
	if allocs != 0 {
		t.Errorf("Reset+refill allocated %.1f times per run, want 0", allocs)
	}
}
