package des

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"vcpusim/internal/rng"
)

// TestHeapKernelResetIndistinguishableFromNew resets a kernel with a pending
// event left behind and checks that, besides Now/Len/Pending, NextTime is
// back to +Inf and a rerun fires the fresh kernel's trace.
func TestHeapKernelResetIndistinguishableFromNew(t *testing.T) {
	fresh := NewKernel()
	want := driveKernel(t, fresh)

	reused := NewKernel()
	_ = driveKernel(t, reused)
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
	if reused.NextTime() != math.Inf(1) {
		t.Errorf("NextTime after Reset = %g, want +Inf", reused.NextTime())
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
			t.Errorf("firing %d: reset %q, fresh %q", i, got[i], want[i])
		}
	}
	if fresh.Fired() != reused.Fired() {
		t.Errorf("fired counts differ: fresh %d, reset %d", fresh.Fired(), reused.Fired())
	}
}

// TestHeapKernelResetAllocFree is the Reset+refill allocation check at a
// queue depth of 64, the tandem-64 event population.
func TestHeapKernelResetAllocFree(t *testing.T) {
	k := NewKernel()
	events := make([]*Event, 64)
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
	// Warm one cycle first so the queue's backing array has already grown;
	// steady-state replications must then be allocation-free.
	fill()
	k.Reset()
	fill()
	allocs := testing.AllocsPerRun(100, func() {
		k.Reset()
		fill()
	})
	if allocs != 0 {
		t.Errorf("Reset+refill allocated %.1f times per run, want 0", allocs)
	}
}

// TestHeapKernelMassSameTimeFIFO piles many events onto a single timestamp
// and checks the sequence-number tie-break holds exactly.
func TestHeapKernelMassSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	const n = 2000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		if _, err := k.Schedule(7, 0, "e", func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(8)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// TestHeapKernelExtremeTimestamps checks that absurdly large (and +Inf)
// timestamps still pop in order.
func TestHeapKernelExtremeTimestamps(t *testing.T) {
	k := NewKernel()
	for _, at := range []float64{1e300, 2, math.Inf(1), 1e18, 0, 7} {
		if _, err := k.Schedule(at, 0, "e", func() {}); err != nil {
			t.Fatal(err)
		}
	}
	prev := math.Inf(-1)
	for i := 0; i < 6; i++ {
		if !k.Step() {
			t.Fatalf("queue dry after %d pops, want 6", i)
		}
		if k.Now() < prev {
			t.Fatalf("pop order regressed: %g after %g", k.Now(), prev)
		}
		prev = k.Now()
	}
	if k.Step() {
		t.Fatal("queue should be empty")
	}
}

// TestHeapKernelCancelHead cancels the current minimum twice, then
// everything, checking NextTime, Len and the cancel counter each time.
func TestHeapKernelCancelHead(t *testing.T) {
	k := NewKernel()
	evs := make([]*Event, 5)
	for i := range evs {
		ev, err := k.Schedule(float64(i*100+1), 0, fmt.Sprintf("e%d", i), func() {})
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}
	k.Cancel(evs[0])
	k.Cancel(evs[1])
	if got := k.NextTime(); got != 201 {
		t.Fatalf("NextTime after cancelling the two earliest = %g, want 201", got)
	}
	for _, ev := range evs[2:] {
		k.Cancel(ev)
	}
	if len(k.queue) != 0 || k.NextTime() != math.Inf(1) {
		t.Fatalf("len=%d NextTime=%g after cancelling everything", len(k.queue), k.NextTime())
	}
	if k.Cancelled() != 5 {
		t.Fatalf("Cancelled = %d, want 5", k.Cancelled())
	}
}

// TestQuickHeapKernelOrderSorted is the sorted-pop property under churn:
// clustered times force ties, a random subset is cancelled before the run,
// and handlers schedule more work mid-run. Every event that fires must do
// so in (time, priority, seq) order, and exactly the uncancelled ones fire.
func TestQuickHeapKernelOrderSorted(t *testing.T) {
	type key struct {
		t    float64
		prio int
		seq  int
	}
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		k := NewKernel()
		count := int(n%120) + 1
		var fired []key
		seq, want := 0, 0
		schedule := func(at float64, prio int, then func()) (*Event, error) {
			kk := key{t: at, prio: prio, seq: seq}
			seq++
			return k.Schedule(at, prio, "e", func() {
				fired = append(fired, kk)
				if then != nil {
					then()
				}
			})
		}
		ok := true
		var evs []*Event
		for i := 0; i < count; i++ {
			ev, err := schedule(float64(r.Intn(50))/4, r.Intn(3), func() {
				if r.Intn(4) != 0 {
					return
				}
				// Strictly later than now, so it cannot jump an event
				// already fired at this instant.
				if _, err := schedule(k.Now()+float64(1+r.Intn(8)), r.Intn(3), nil); err != nil {
					ok = false
				}
				want++
			})
			if err != nil {
				return false
			}
			evs = append(evs, ev)
		}
		want += count
		for _, ev := range evs {
			if r.Intn(5) == 0 {
				k.Cancel(ev)
				want--
			}
		}
		k.RunUntil(40)
		if !ok || len(fired) != want {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			a, b := fired[i], fired[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.seq < b.seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
