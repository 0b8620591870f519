package des

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"vcpusim/internal/rng"
)

func TestFiringOrderByTime(t *testing.T) {
	k := NewKernel()
	var got []string
	add := func(at float64, name string) {
		if _, err := k.Schedule(at, 0, name, func() { got = append(got, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add(3, "c")
	add(1, "a")
	add(2, "b")
	k.RunUntil(10)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if k.Now() != 10 {
		t.Errorf("clock = %g, want horizon 10", k.Now())
	}
}

func TestSameTimePriorityOrder(t *testing.T) {
	k := NewKernel()
	var got []string
	add := func(prio int, name string) {
		if _, err := k.Schedule(5, prio, name, func() { got = append(got, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add(2, "low")
	add(1, "high")
	add(2, "low2")
	k.RunUntil(10)
	if got[0] != "high" || got[1] != "low" || got[2] != "low2" {
		t.Fatalf("priority order %v", got)
	}
}

func TestSameTimeSamePriorityFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := k.Schedule(1, 0, "e", func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev, err := k.Schedule(1, 0, "x", func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Pending() {
		t.Error("event should be pending after scheduling")
	}
	k.Cancel(ev)
	if ev.Pending() {
		t.Error("event should not be pending after cancel")
	}
	k.RunUntil(10)
	if fired {
		t.Error("cancelled event fired")
	}
	k.Cancel(ev) // double cancel is a no-op
	k.Cancel(nil)
}

func TestCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel()
	var got []string
	evs := make([]*Event, 5)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		name := name
		ev, err := k.Schedule(float64(i+1), 0, name, func() { got = append(got, name) })
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}
	k.Cancel(evs[2]) // remove "c"
	k.RunUntil(10)
	want := []string{"a", "b", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestSchedulePastFails(t *testing.T) {
	k := NewKernel()
	if _, err := k.Schedule(5, 0, "x", func() {}); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(5)
	_, err := k.Schedule(4, 0, "late", func() {})
	if !errors.Is(err, ErrPast) {
		t.Fatalf("err = %v, want ErrPast", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	k := NewKernel()
	if _, err := k.Schedule(1, 0, "nil", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestHorizonBoundary(t *testing.T) {
	k := NewKernel()
	var fired []string
	add := func(at float64, name string) {
		if _, err := k.Schedule(at, 0, name, func() { fired = append(fired, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add(10, "at-horizon")
	add(10.5, "beyond")
	k.RunUntil(10)
	if len(fired) != 1 || fired[0] != "at-horizon" {
		t.Fatalf("fired %v, want only the at-horizon event", fired)
	}
	if k.Now() != 10 {
		t.Errorf("clock = %g, want 10", k.Now())
	}
	// The beyond event remains pending for a later run.
	k.RunUntil(11)
	if len(fired) != 2 {
		t.Fatalf("beyond event did not fire on the next run: %v", fired)
	}
}

func TestScheduleAfter(t *testing.T) {
	k := NewKernel()
	var times []float64
	var rec func()
	rec = func() {
		times = append(times, k.Now())
		if len(times) < 3 {
			if _, err := k.ScheduleAfter(2, 0, "tick", rec); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := k.ScheduleAfter(2, 0, "tick", rec); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(100)
	want := []float64{2, 4, 6}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick times %v, want %v", times, want)
		}
	}
}

func TestHalt(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		if _, err := k.Schedule(float64(i), 0, "e", func() {
			count++
			if count == 3 {
				k.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(100)
	if count != 3 {
		t.Fatalf("fired %d events after halt, want 3", count)
	}
}

func TestStepAndCounters(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Error("Step on empty kernel should return false")
	}
	for i := 1; i <= 3; i++ {
		if _, err := k.Schedule(float64(i), 0, "e", func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.queue) != 3 {
		t.Errorf("len = %d, want 3", len(k.queue))
	}
	if !k.Step() {
		t.Error("Step should fire")
	}
	if k.Fired() != 1 || len(k.queue) != 2 || k.Now() != 1 {
		t.Errorf("after one step: fired=%d len=%d now=%g", k.Fired(), len(k.queue), k.Now())
	}
}

func TestQuickFiringOrderSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rng.New(uint64(seed))
		k := NewKernel()
		count := int(n%50) + 1
		type key struct {
			t    float64
			prio int
			seq  int
		}
		var fired []key
		for i := 0; i < count; i++ {
			at := float64(r.Intn(20))
			prio := r.Intn(3)
			kk := key{t: at, prio: prio, seq: i}
			if _, err := k.Schedule(at, prio, "e", func() { fired = append(fired, kk) }); err != nil {
				return false
			}
		}
		k.RunUntil(100)
		if len(fired) != count {
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
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
