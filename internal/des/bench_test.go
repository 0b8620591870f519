package des

import (
	"testing"

	"vcpusim/internal/rng"
)

func BenchmarkScheduleAndStep(b *testing.B) {
	k := NewKernel()
	handler := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.ScheduleAfter(1, 0, "e", handler); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	// 1024 pending events with continual insert/pop churn.
	k := NewKernel()
	handler := func() {}
	for i := 0; i < 1024; i++ {
		if _, err := k.Schedule(float64(i), 0, "seed", handler); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.ScheduleAfter(2048, 0, "e", handler); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

func BenchmarkCancel(b *testing.B) {
	k := NewKernel()
	handler := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev, err := k.ScheduleAfter(1, 0, "e", handler)
		if err != nil {
			b.Fatal(err)
		}
		k.Cancel(ev)
	}
}

// BenchmarkChurnHeapKernel measures steady-state pop+reschedule churn with
// reusable arena events at a queue depth of 64 and exponential inter-event
// gaps — the tandem-64 SAN executor's event-list workload, without the
// executor around it.
func BenchmarkChurnHeapKernel(b *testing.B) {
	k := NewKernel()
	r := rng.New(1)
	const depth = 64
	k.Reserve(depth)
	var current *Event
	for i := 0; i < depth; i++ {
		var ev *Event
		ev, err := k.NewEvent(0, "churn", func() { current = ev })
		if err != nil {
			b.Fatal(err)
		}
		if err := k.ScheduleEventAt(ev, r.ExpInv()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue dried up")
		}
		if err := k.ScheduleEventAt(current, k.Now()+r.ExpInv()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnInHandler is BenchmarkChurnHeapKernel with the reschedule
// moved into the handler, where the SAN executor makes it: each fired event
// schedules its next activation while it still holds the heap's root, so
// this row shows what firing in place saves.
func BenchmarkChurnInHandler(b *testing.B) {
	k := NewKernel()
	r := rng.New(1)
	const depth = 64
	k.Reserve(depth)
	for i := 0; i < depth; i++ {
		var ev *Event
		ev, err := k.NewEvent(0, "churn", func() {
			if err := k.ScheduleEventAt(ev, k.Now()+r.ExpInv()); err != nil {
				b.Fatal(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := k.ScheduleEventAt(ev, r.ExpInv()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("queue dried up")
		}
	}
}
