package san

import (
	"fmt"
	"reflect"
	"testing"

	"vcpusim/internal/rng"
)

// firings runs m to horizon and returns every firing as "name@time", in
// order, recorded by a post-fire hook.
func firings(t *testing.T, m *Model, horizon float64) []string {
	t.Helper()
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	r.SetFireHooks(nil, func(a *Activity) { fired = append(fired, fmt.Sprintf("%s@%g", a.Name(), r.Now())) })
	if _, err := r.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return fired
}

// TestStabilizeRetestsFiredSingleArc pins the inline re-test of a fired
// activity whose whole enabling test is one input arc: it stays a
// candidate exactly while its place still holds enough tokens, and a
// later write to the place makes it a candidate again.
func TestStabilizeRetestsFiredSingleArc(t *testing.T) {
	t.Run("two tokens fire twice in a row", func(t *testing.T) {
		// a drains p one token per firing; b (lower priority) waits
		// until a is disabled.
		m := NewModel("twice")
		s := m.Sub("s")
		p, q, r := s.Place("p", 2), s.Place("q", 0), s.Place("r", 1)
		s.InstantActivity("a").Priority(1).InputArc(p, 1).OutputArc(q, 1)
		s.InstantActivity("b").Priority(2).InputArc(r, 1).OutputArc(q, 1)
		if got, want := firings(t, m, 1), []string{"s/a@0", "s/a@0", "s/b@0"}; !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
	})

	t.Run("refill of a just-emptied place", func(t *testing.T) {
		// a empties p and is found disabled; b, of lower priority,
		// refills p, so a fires again before anything else.
		m := NewModel("refill")
		s := m.Sub("s")
		p, q, r, u := s.Place("p", 1), s.Place("q", 0), s.Place("r", 1), s.Place("u", 1)
		s.InstantActivity("a").Priority(1).InputArc(p, 1).OutputArc(q, 1)
		s.InstantActivity("b").Priority(2).InputArc(r, 1).OutputArc(p, 1)
		s.InstantActivity("c").Priority(3).InputArc(u, 1).OutputArc(q, 1)
		if got, want := firings(t, m, 1), []string{"s/a@0", "s/b@0", "s/a@0", "s/c@0"}; !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
	})

	t.Run("foreign arc", func(t *testing.T) {
		// a's one input arc is in the model and its output arc leaves
		// it, so a fires through Place.Add and is never re-tested
		// inline: it stays a candidate after every firing.
		m := NewModel("foreign")
		s := m.Sub("s")
		p, r := s.Place("p", 2), s.Place("r", 1)
		away := NewModel("other").Sub("o").Place("away", 0)
		s.InstantActivity("a").Priority(1).InputArc(p, 1).OutputArc(away, 1)
		s.InstantActivity("b").Priority(2).InputArc(r, 1).OutputArc(p, 1)
		if got, want := firings(t, m, 1), []string{"s/a@0", "s/a@0", "s/b@0", "s/a@0"}; !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
		if away.Tokens() != 3 {
			t.Errorf("foreign place holds %d tokens, want 3", away.Tokens())
		}

		prog, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		in, err := prog.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		in.Reset(1)
		ap := in.instants[0]
		if !ap.foreign || ap.enabP != p {
			t.Fatalf("plan foreign=%v enabP=%v, want a foreign single-arc plan on p", ap.foreign, ap.enabP)
		}
		p.tokens = 0
		in.candInst.zero()
		in.retest(in.candInst, ap, 0)
		if !in.candInst.has(0) {
			t.Error("a foreign plan found disabled left the candidates; only in-model single-arc plans are re-tested")
		}
	})

	t.Run("timed queue empties on completion", func(t *testing.T) {
		// serve takes one time unit per queued token. The queue empties at
		// t=2, so serve is not rescheduled until arrive refills it at t=3.
		m := NewModel("queue")
		s := m.Sub("s")
		q, done := s.Place("q", 2), s.Place("done", 0)
		s.TimedActivity("serve", rng.Deterministic{Value: 1}).InputArc(q, 1).OutputArc(done, 1)
		s.TimedActivity("arrive", rng.Deterministic{Value: 3}).OutputArc(q, 1)
		want := []string{"s/serve@1", "s/serve@2", "s/arrive@3", "s/serve@4"}
		if got := firings(t, m, 5.5); !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
	})
}
