package san

import (
	"math"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

func TestPlaceTokens(t *testing.T) {
	m := NewModel("m")
	s := m.Sub("s")
	p := s.Place("p", 3)
	if p.Tokens() != 3 {
		t.Fatalf("initial tokens = %d, want 3", p.Tokens())
	}
	p.Add(2)
	if p.Tokens() != 5 {
		t.Fatalf("tokens = %d, want 5", p.Tokens())
	}
	p.SetTokens(0)
	if p.Tokens() != 0 {
		t.Fatalf("tokens = %d, want 0", p.Tokens())
	}
	if m.Err() != nil {
		t.Fatalf("unexpected model error: %v", m.Err())
	}
}

func TestNegativeMarkingIsModelError(t *testing.T) {
	m := NewModel("m")
	p := m.Sub("s").Place("p", 0)
	p.Add(-1)
	if m.Err() == nil {
		t.Fatal("negative marking did not record an error")
	}
	if p.Tokens() != 0 {
		t.Fatalf("tokens = %d, want clamped 0", p.Tokens())
	}
}

func TestDuplicateNameIsError(t *testing.T) {
	m := NewModel("m")
	s := m.Sub("s")
	s.Place("p", 0)
	s.Place("p", 0)
	if m.Err() == nil {
		t.Fatal("duplicate component name accepted")
	}
}

func TestExtPlaceReset(t *testing.T) {
	m := NewModel("m")
	s := m.Sub("s")
	p := NewExtPlace(s, "x", func() int { return 42 })
	*p.Get() = 7
	p.Reset()
	if *p.Get() != 42 {
		t.Fatalf("reset value = %d, want 42", *p.Get())
	}
	p.Set(9)
	if *p.Get() != 9 {
		t.Fatalf("set value = %d, want 9", *p.Get())
	}
}

func TestJoinBookkeeping(t *testing.T) {
	m := NewModel("m")
	a := m.Sub("a")
	b := m.Sub("b")
	p := a.Place("shared", 0)
	b.Share(p)
	joins := p.JoinedBy()
	if len(joins) != 2 || joins[0] != "a" || joins[1] != "b" {
		t.Fatalf("joins = %v, want [a b]", joins)
	}
	e := NewExtPlace(a, "ext", func() int { return 0 })
	ShareExt(b, e)
	if got := m.ExtPlaceJoins()["a/ext"]; len(got) != 2 {
		t.Fatalf("ext joins = %v", got)
	}
}

func TestNilGateErrors(t *testing.T) {
	m := NewModel("m")
	s := m.Sub("s")
	a := s.InstantActivity("a")
	a.Predicate(nil)
	a.AddCase(nil, nil)
	m.AddRateReward("r", nil)
	m.AddImpulseReward("i", nil, nil)
	if m.Err() == nil {
		t.Fatal("nil gates accepted")
	}
}

// buildCounter builds a model with a deterministic timed activity firing
// every `period` that increments place p.
func buildCounter(period float64) (*Model, *Place) {
	m := NewModel("counter")
	s := m.Sub("s")
	p := s.Place("count", 0)
	a := s.TimedActivity("tick", rng.Deterministic{Value: period})
	a.AddCase(nil, func() { p.Add(1) })
	return m, p
}

func TestTimedActivityFiresPeriodically(t *testing.T) {
	m, p := buildCounter(2)
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tokens() != 5 {
		t.Fatalf("count = %d, want 5 firings over [0,11) at period 2", p.Tokens())
	}
	if res.Firings != 5 {
		t.Fatalf("firings = %d, want 5", res.Firings)
	}
}

func TestRateReward(t *testing.T) {
	// A place toggles 0 -> 1 at t=4 and stays; the rate reward over [0,10]
	// is 0.6.
	m := NewModel("toggle")
	s := m.Sub("s")
	p := s.Place("p", 0)
	a := s.TimedActivity("set", rng.Deterministic{Value: 4})
	a.Predicate(func() bool { return p.Tokens() == 0 })
	a.AddCase(nil, func() { p.SetTokens(1) })
	m.AddRateReward("frac", func() float64 { return float64(p.Tokens()) })

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rates["frac"]; math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("rate reward = %g, want 0.6", got)
	}
}

func TestImpulseReward(t *testing.T) {
	m, _ := buildCounter(1)
	a := m.Activities()[0]
	m.AddImpulseReward("count", a, nil)
	m.AddImpulseReward("weighted", a, func() float64 { return 2.5 })
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The window is half-open: firings at t=1,2,3,4 land inside [0,4.5).
	res, err := r.Run(4.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Impulses["count"] != 4 {
		t.Fatalf("impulse count = %g, want 4", res.Impulses["count"])
	}
	if res.Impulses["weighted"] != 10 {
		t.Fatalf("weighted impulse = %g, want 10", res.Impulses["weighted"])
	}
}

func TestInstantaneousStabilization(t *testing.T) {
	// A timed activity deposits 3 tokens; an instantaneous activity moves
	// them one by one to q before time advances.
	m := NewModel("stab")
	s := m.Sub("s")
	src := s.Place("src", 0)
	dst := s.Place("dst", 0)
	timed := s.TimedActivity("deposit", rng.Deterministic{Value: 1})
	timed.AddCase(nil, func() { src.Add(3) })
	move := s.InstantActivity("move")
	move.InputArc(src, 1)
	move.OutputArc(dst, 1)

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(2.5); err != nil {
		t.Fatal(err)
	}
	if src.Tokens() != 0 {
		t.Fatalf("src = %d, want fully drained", src.Tokens())
	}
	if dst.Tokens() != 6 {
		t.Fatalf("dst = %d, want 6", dst.Tokens())
	}
}

func TestInstantaneousPriorityOrder(t *testing.T) {
	// Two instantaneous activities compete for one token; the lower
	// priority number must win every time.
	m := NewModel("prio")
	s := m.Sub("s")
	token := s.Place("token", 0)
	hi := s.Place("hi", 0)
	lo := s.Place("lo", 0)
	timed := s.TimedActivity("deposit", rng.Deterministic{Value: 1})
	timed.AddCase(nil, func() { token.Add(1) })
	loAct := s.InstantActivity("low-prio").Priority(20)
	loAct.InputArc(token, 1)
	loAct.OutputArc(lo, 1)
	hiAct := s.InstantActivity("high-prio").Priority(10)
	hiAct.InputArc(token, 1)
	hiAct.OutputArc(hi, 1)

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(5.5); err != nil {
		t.Fatal(err)
	}
	if hi.Tokens() != 5 || lo.Tokens() != 0 {
		t.Fatalf("hi=%d lo=%d, want 5/0", hi.Tokens(), lo.Tokens())
	}
}

func TestCaseProbabilities(t *testing.T) {
	// A fast timed activity with two cases weighted 3:1.
	m := NewModel("cases")
	s := m.Sub("s")
	a := s.Place("a", 0)
	b := s.Place("b", 0)
	act := s.TimedActivity("fire", rng.Deterministic{Value: 1})
	act.AddCase(func() float64 { return 3 }, func() { a.Add(1) })
	act.AddCase(func() float64 { return 1 }, func() { b.Add(1) })

	r, err := NewRunner(m, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10000.5); err != nil {
		t.Fatal(err)
	}
	total := a.Tokens() + b.Tokens()
	if total != 10000 {
		t.Fatalf("total = %d, want 10000", total)
	}
	frac := float64(a.Tokens()) / float64(total)
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("case A fraction = %g, want ~0.75", frac)
	}
}

func TestActivityAbortOnDisable(t *testing.T) {
	// A slow activity is enabled at t=0 but disabled by a faster one
	// before completion; it must never fire (race-enabled policy).
	m := NewModel("abort")
	s := m.Sub("s")
	gate := s.Place("gate", 1)
	fired := s.Place("fired", 0)
	slow := s.TimedActivity("slow", rng.Deterministic{Value: 10})
	slow.Predicate(func() bool { return gate.Tokens() > 0 })
	var slowDone, fastDone int
	slow.AddCase(nil, func() {
		fired.Add(1)
		slowDone++
	})
	fast := s.TimedActivity("fast", rng.Deterministic{Value: 3})
	fast.Predicate(func() bool { return gate.Tokens() > 0 })
	fast.AddCase(nil, func() {
		gate.SetTokens(0)
		fastDone++
	})

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(50); err != nil {
		t.Fatal(err)
	}
	if fired.Tokens() != 0 {
		t.Fatalf("aborted activity fired %d times", fired.Tokens())
	}
	if slowDone != 0 || fastDone != 1 {
		t.Fatalf("completions slow=%d fast=%d, want 0/1", slowDone, fastDone)
	}
}

func TestActivityReactivationResamples(t *testing.T) {
	// An activity disabled and re-enabled must restart its delay: with a
	// gate cycling every 3 ticks and a 5-tick delay, it never completes.
	m := NewModel("resample")
	s := m.Sub("s")
	gate := s.Place("gate", 1)
	fired := s.Place("fired", 0)
	target := s.TimedActivity("target", rng.Deterministic{Value: 5})
	target.Predicate(func() bool { return gate.Tokens() > 0 })
	target.AddCase(nil, func() { fired.Add(1) })
	cycle := s.TimedActivity("cycle", rng.Deterministic{Value: 3})
	cycle.AddCase(nil, func() {
		if gate.Tokens() > 0 {
			gate.SetTokens(0)
		} else {
			gate.SetTokens(1)
		}
	})

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired.Tokens() != 0 {
		t.Fatalf("activity fired %d times despite never staying enabled 5 ticks", fired.Tokens())
	}
}

func TestLivelockDetected(t *testing.T) {
	m := NewModel("livelock")
	s := m.Sub("s")
	a := s.InstantActivity("spin")
	a.AddCase(nil, func() {}) // always enabled, never changes marking
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(1); err == nil {
		t.Fatal("instantaneous livelock not detected")
	}
}

func TestInvalidDelayDetected(t *testing.T) {
	m := NewModel("baddelay")
	s := m.Sub("s")
	a := s.TimedActivityFunc("neg", func(*rng.Source) float64 { return -1 })
	a.AddCase(nil, func() {})
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil {
		t.Fatal("negative delay not detected")
	}
}

func TestRunnerResetsMarking(t *testing.T) {
	m, p := buildCounter(1)
	r1, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(5.5); err != nil {
		t.Fatal(err)
	}
	if p.Tokens() != 5 {
		t.Fatalf("count after first run = %d", p.Tokens())
	}
	r2, err := NewRunner(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(3.5); err != nil {
		t.Fatal(err)
	}
	if p.Tokens() != 3 {
		t.Fatalf("count after second run = %d, want reset then 3", p.Tokens())
	}
}

func TestNonPositiveHorizonRejected(t *testing.T) {
	m, _ := buildCounter(1)
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestExponentialRace(t *testing.T) {
	// Two exponential activities race for one token; the faster rate must
	// win roughly rate1/(rate1+rate2) of the time.
	m := NewModel("race")
	s := m.Sub("s")
	token := s.Place("token", 1)
	winsA := s.Place("winsA", 0)
	winsB := s.Place("winsB", 0)
	mk := func(name string, rate float64, wins *Place) {
		a := s.TimedActivity(name, rng.Exponential{Rate: rate})
		a.Predicate(func() bool { return token.Tokens() > 0 })
		a.AddCase(nil, func() {
			wins.Add(1)
			// Keep the race going: leave the token in place.
		})
	}
	mk("fast", 3, winsA)
	mk("slow", 1, winsB)

	r, err := NewRunner(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(3000); err != nil {
		t.Fatal(err)
	}
	total := winsA.Tokens() + winsB.Tokens()
	if total < 1000 {
		t.Fatalf("only %d completions", total)
	}
	frac := float64(winsA.Tokens()) / float64(total)
	if math.Abs(frac-0.75) > 0.05 {
		t.Fatalf("fast fraction = %g, want ~0.75", frac)
	}
}

func TestDotOutput(t *testing.T) {
	m := NewModel("viz")
	a := m.Sub("a")
	b := m.Sub("b")
	p := a.Place("p", 1)
	b.Share(p)
	act := a.TimedActivity("t", rng.Deterministic{Value: 1})
	act.InputArc(p, 1)
	dot := m.Dot()
	for _, want := range []string{"digraph", "cluster", `"a/p"`, `"a/t"`, "a/p\" -> \"a/t"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestValidateGivesImplicitCase(t *testing.T) {
	m := NewModel("implicit")
	s := m.Sub("s")
	p := s.Place("p", 0)
	a := s.TimedActivity("t", rng.Deterministic{Value: 1})
	a.OutputArc(p, 1) // arc only, no case
	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.cases) != 1 || a.gateCases != 0 {
		t.Fatalf("%d cases (%d added), want the one implicit case", len(a.cases), a.gateCases)
	}
	if _, err := r.Run(3.5); err != nil {
		t.Fatal(err)
	}
	if p.Tokens() != 3 {
		t.Fatalf("p = %d, want 3", p.Tokens())
	}
}

func TestModelIntrospection(t *testing.T) {
	m := NewModel("intro")
	s := m.Sub("s")
	s.Place("p", 0)
	NewExtPlace(s, "e", func() int { return 0 })
	act := s.TimedActivity("t", rng.Deterministic{Value: 1})
	act.Link(LinkInput, "s/p")
	m.AddRateReward("r", func() float64 { return 0 })

	if len(m.Places()) != 1 || len(m.Activities()) != 1 {
		t.Fatalf("places=%d activities=%d", len(m.Places()), len(m.Activities()))
	}
	if names := m.ExtPlaceNames(); len(names) != 1 || names[0] != "s/e" {
		t.Fatalf("ext names = %v", names)
	}
	if names := m.RateRewardNames(); len(names) != 1 || names[0] != "r" {
		t.Fatalf("reward names = %v", names)
	}
	if links := act.Links(); len(links) != 1 || links[0].Place != "s/p" {
		t.Fatalf("links = %v", links)
	}
	if act.kind != Timed {
		t.Fatalf("kind = %v", act.kind)
	}
}

func TestReplicateComposition(t *testing.T) {
	// M/M/c as a Replicate of c server submodels sharing one queue place:
	// the Replicate operation's common-place pattern.
	m := NewModel("mmc")
	q := m.Sub("shared").Place("queue", 0)
	arrive := m.Sub("shared").TimedActivity("arrive", rng.Exponential{Rate: 1.5})
	arrive.AddCase(nil, func() { q.Add(1) })
	const servers = 3
	m.Replicate("server", servers, func(i int, s *Sub) {
		busy := s.Place("busy", 0)
		take := s.InstantActivity("take")
		take.Predicate(func() bool { return q.Tokens() > 0 && busy.Tokens() == 0 })
		take.AddCase(nil, func() { q.Add(-1); busy.SetTokens(1) })
		serve := s.TimedActivity("serve", rng.Exponential{Rate: 1})
		serve.InputArc(busy, 1)
	})
	m.AddRateReward("busyServers", func() float64 {
		n := 0.0
		for _, p := range m.Places() {
			if strings.HasPrefix(p.Name(), "server[") && p.Tokens() > 0 {
				n++
			}
		}
		return n
	})

	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	// Component naming: server[0]/busy .. server[2]/busy.
	want := map[string]bool{"server[0]/busy": true, "server[1]/busy": true, "server[2]/busy": true}
	for _, p := range m.Places() {
		delete(want, p.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing replicated places: %v", want)
	}

	r, err := NewRunner(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunInterval(500, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// M/M/3 with lambda=1.5, mu=1: mean busy servers = lambda/mu = 1.5.
	if got := res.Rates["busyServers"]; math.Abs(got-1.5) > 0.1 {
		t.Fatalf("mean busy servers = %g, want ~1.5", got)
	}
}

func TestReplicateErrors(t *testing.T) {
	m := NewModel("bad")
	m.Replicate("x", 0, func(int, *Sub) {})
	if m.Err() == nil {
		t.Fatal("zero copies accepted")
	}
	m2 := NewModel("bad2")
	m2.Replicate("x", 2, nil)
	if m2.Err() == nil {
		t.Fatal("nil build accepted")
	}
}
