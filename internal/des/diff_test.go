package des

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"vcpusim/internal/rng"
)

// refEvent is one reusable event of refList.
type refEvent struct {
	time     float64
	priority int
	seq      uint64
	pending  bool
	handler  func()
}

// refList is the reference event list the kernel is checked against: the
// pending events in a slice kept sorted by (time, priority, seq), and a Step
// that removes the first one before its handler runs. It offers the
// kernel's API over event ids instead of *Event.
type refList struct {
	now                         float64
	seq                         uint64
	fired, scheduled, cancelled uint64
	events                      []refEvent
	sorted                      []int // ids of the pending events, earliest first
}

func (l *refList) less(a, b int) bool {
	x, y := &l.events[a], &l.events[b]
	if x.time != y.time {
		return x.time < y.time
	}
	if x.priority != y.priority {
		return x.priority < y.priority
	}
	return x.seq < y.seq
}

func (l *refList) newEvent(priority int, h func()) int {
	l.events = append(l.events, refEvent{priority: priority, handler: h})
	return len(l.events) - 1
}

func (l *refList) schedule(id int, t float64) error {
	ev := &l.events[id]
	if ev.pending {
		return errors.New("pending")
	}
	if math.IsNaN(t) || t < l.now {
		return ErrPast
	}
	l.seq++
	l.scheduled++
	ev.time, ev.seq, ev.pending = t, l.seq, true
	i := sort.Search(len(l.sorted), func(i int) bool { return l.less(id, l.sorted[i]) })
	l.sorted = append(l.sorted, 0)
	copy(l.sorted[i+1:], l.sorted[i:])
	l.sorted[i] = id
	return nil
}

func (l *refList) cancel(id int) {
	if !l.events[id].pending {
		return
	}
	for i, x := range l.sorted {
		if x == id {
			l.sorted = append(l.sorted[:i], l.sorted[i+1:]...)
			break
		}
	}
	l.events[id].pending = false
	l.cancelled++
}

func (l *refList) pending(id int) bool { return l.events[id].pending }

func (l *refList) step() bool {
	if len(l.sorted) == 0 {
		return false
	}
	id := l.sorted[0]
	l.sorted = l.sorted[1:]
	ev := &l.events[id]
	ev.pending = false
	l.now = ev.time
	l.fired++
	ev.handler()
	return true
}

func (l *refList) nextTime() float64 {
	if len(l.sorted) == 0 {
		return math.Inf(1)
	}
	return l.events[l.sorted[0]].time
}

func (l *refList) advanceTo(t float64) error {
	if math.IsNaN(t) || t < l.now {
		return ErrPast
	}
	if t > l.nextTime() {
		return errors.New("step over")
	}
	l.now = t
	return nil
}

func (l *refList) reset() {
	for _, id := range l.sorted {
		l.events[id].pending = false
	}
	l.sorted = l.sorted[:0]
	l.now, l.seq = 0, 0
	l.fired, l.scheduled, l.cancelled = 0, 0, 0
}

func (l *refList) clock() float64 { return l.now }

func (l *refList) counters() [3]uint64 { return [3]uint64{l.fired, l.scheduled, l.cancelled} }

// kernelList adapts a Kernel to refList's id-based API.
type kernelList struct {
	k      *Kernel
	events []*Event
}

func (l *kernelList) newEvent(priority int, h func()) int {
	ev, err := l.k.NewEvent(priority, "e", h)
	if err != nil {
		panic(err)
	}
	l.events = append(l.events, ev)
	return len(l.events) - 1
}

func (l *kernelList) schedule(id int, t float64) error { return l.k.ScheduleEventAt(l.events[id], t) }
func (l *kernelList) cancel(id int)                    { l.k.Cancel(l.events[id]) }
func (l *kernelList) pending(id int) bool              { return l.events[id].Pending() }
func (l *kernelList) step() bool                       { return l.k.Step() }
func (l *kernelList) nextTime() float64                { return l.k.NextTime() }
func (l *kernelList) advanceTo(t float64) error        { return l.k.AdvanceTo(t) }
func (l *kernelList) reset()                           { l.k.Reset() }
func (l *kernelList) clock() float64                   { return l.k.Now() }

func (l *kernelList) counters() [3]uint64 {
	return [3]uint64{l.k.Fired(), l.k.Scheduled(), l.k.Cancelled()}
}

// eventList is the API the differential scripts drive.
type eventList interface {
	newEvent(priority int, h func()) int
	schedule(id int, t float64) error
	cancel(id int)
	pending(id int) bool
	step() bool
	nextTime() float64
	advanceTo(t float64) error
	reset()
	clock() float64
	counters() [3]uint64
}

// runScript drives l with the random script seed selects and returns its
// log: every firing, every Pending, NextTime and AdvanceTo answer, every
// schedule error and the counters after each top-level step. The script's
// choices come from its own stream, so two lists that answer alike are
// driven alike.
func runScript(l eventList, seed uint64) []string {
	r := rng.New(seed)
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	n := 1 + r.Intn(12)
	// Gaps of 0 and multiples of 1/2 make same-time events common, so the
	// priority and sequence tie-breaks decide much of the order.
	gap := func() float64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return r.Float64() * 3
		default:
			return float64(r.Intn(4)) / 2
		}
	}
	schedule := func(id int) {
		if err := l.schedule(id, l.clock()+gap()); err != nil {
			logf("schedule %d: refused", id)
		}
	}
	depth := 0
	for i := 0; i < n; i++ {
		id := i
		l.newEvent(r.Intn(3), func() {
			logf("fire %d @%g", id, l.clock())
			for a := r.Intn(5); a > 0; a-- {
				switch op := r.Intn(20); {
				case op < 6: // reschedule itself
					schedule(id)
				case op < 11: // schedule another event, pending or not
					schedule(r.Intn(n))
				case op < 13: // cancel any event, the firing one included
					c := r.Intn(n)
					if r.Intn(4) == 0 {
						c = id
					}
					l.cancel(c)
				case op < 15:
					logf("next %g", l.nextTime())
				case op < 17:
					c := r.Intn(n)
					logf("pending %d %v", c, l.pending(c))
				case op < 19:
					// Sometimes onto or past the next event, so both
					// answers are exercised.
					t := l.clock() + gap()
					err := l.advanceTo(t)
					logf("advance %g: %v now %g", t, err == nil, l.clock())
				case r.Intn(3) == 0:
					logf("reset")
					l.reset()
				case depth < 2:
					depth++
					logf("nested step %v", l.step())
					depth--
				}
			}
		})
	}
	for s := 0; s < 400; s++ {
		if l.nextTime() == math.Inf(1) {
			schedule(r.Intn(n))
			schedule(r.Intn(n))
		}
		if !l.step() {
			logf("dry")
		}
		logf("counters %v next %g", l.counters(), l.nextTime())
	}
	return log
}

// TestKernelMatchesReferenceList runs random scripts on the kernel and on
// refList, whose Step removes the fired event before its handler runs, and
// requires the same fire sequence, answers and counters: firing in place
// is invisible to everything but the heap.
func TestKernelMatchesReferenceList(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		want := runScript(&refList{}, seed)
		got := runScript(&kernelList{k: NewKernel()}, seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d, entry %d: kernel %q, reference %q (previous %q)", seed, i, g, want[i], want[max(i-1, 0)])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel logged %d entries, reference %d", seed, len(got), len(want))
		}
	}
}

// TestStepRescheduleAllocFree pins the hot path's allocation count: a Step
// whose handler reschedules its own event, at the tandem-64 queue depth.
func TestStepRescheduleAllocFree(t *testing.T) {
	k := NewKernel()
	r := rng.New(3)
	const depth = 64
	k.Reserve(depth)
	for i := 0; i < depth; i++ {
		var ev *Event
		ev, err := k.NewEvent(0, "e", func() {
			if err := k.ScheduleEventAt(ev, k.Now()+r.ExpInv()); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.ScheduleEventAt(ev, r.ExpInv()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !k.Step() {
			t.Fatal("queue dried up")
		}
	})
	if allocs != 0 {
		t.Errorf("Step with a rescheduling handler allocated %.1f times, want 0", allocs)
	}
}

// TestNaNTimeRefused checks that a NaN time neither enters the event list
// nor reaches the clock, where it would defeat every later past check.
func TestNaNTimeRefused(t *testing.T) {
	k := NewKernel()
	ev, err := k.NewEvent(0, "e", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ScheduleEventAt(ev, math.NaN()); !errors.Is(err, ErrPast) {
		t.Fatalf("ScheduleEventAt(NaN) = %v, want ErrPast", err)
	}
	if err := k.ScheduleEventAfter(ev, math.NaN()); !errors.Is(err, ErrPast) {
		t.Fatalf("ScheduleEventAfter(NaN) = %v, want ErrPast", err)
	}
	if ev.Pending() || k.Scheduled() != 0 || k.NextTime() != math.Inf(1) {
		t.Fatalf("refused NaN schedule left pending=%v scheduled=%d next=%g", ev.Pending(), k.Scheduled(), k.NextTime())
	}
	if err := k.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	if err := k.AdvanceTo(math.NaN()); !errors.Is(err, ErrPast) {
		t.Fatalf("AdvanceTo(NaN) = %v, want ErrPast", err)
	}
	if k.Now() != 2 {
		t.Fatalf("clock after refused AdvanceTo(NaN) = %g, want 2", k.Now())
	}
	if err := k.ScheduleEventAt(ev, 1); !errors.Is(err, ErrPast) {
		t.Fatalf("ScheduleEventAt(1) at now 2 = %v, want ErrPast", err)
	}
}
