// Package fixtures holds small SAN models with deliberately seeded
// modeling defects: a defective ("-bad") fixture and its clean ("-ok")
// twin for every sanalyze check a small model can trigger. They
// unit-test the analyzer, pin its reports through the golden file in
// internal/sanalyze/testdata, and let `vcpusim vet -fixtures` demonstrate
// every check firing (with its counterexample, where reachability
// produced one).
//
// The models are analyzed statically and never simulated — several of the
// defective ones would livelock or fail immediately if run.
package fixtures

import (
	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
)

// Fixture is one named model with its expected analyzer outcome.
type Fixture struct {
	// Name identifies the fixture; "-bad" fixtures seed a defect, "-ok"
	// fixtures are the matching variant without it.
	Name string
	// Check is the check a "-bad" fixture seeds a defect for; its "-ok"
	// twin must not report it.
	Check string
	// Expect is the exact set of check identifiers Analyze must report
	// (order-insensitive, duplicates collapsed); empty means the model
	// must verify clean.
	Expect []string
	// Disabled is passed to the analysis as sanalyze.Options.Disabled,
	// mirroring a fault plan arming dormant activities.
	Disabled []string
	// Build constructs the model.
	Build func() *san.Model
}

// All returns every fixture, defective and clean, in a fixed order:
// the shape fixtures, then the state fixtures.
func All() []Fixture {
	return append(Shape(), State()...)
}

// Shape returns the fixtures of the checks read off the model's declared
// structure (shape.go), dead-activity through its arc fixpoint included.
func Shape() []Fixture {
	return []Fixture{
		{
			Name:   "case-weights-bad",
			Check:  sanalyze.CheckCaseWeights,
			Expect: []string{sanalyze.CheckCaseWeights, sanalyze.CheckDeadlockUnknown},
			Build: func() *san.Model {
				m, s, p := base("case_weights_bad")
				act := s.TimedActivity("act", rng.Exponential{Rate: 1})
				act.InputArc(p, 1)
				act.OutputArc(p, 1)
				act.AddCase(weight(0.3), func() {})
				act.AddCase(weight(0.5), func() {}) // sums to 0.8, not 1
				return m
			},
		},
		{
			Name:   "case-weights-ok",
			Expect: []string{sanalyze.CheckDeadlockUnknown},
			Build: func() *san.Model {
				m, s, p := base("case_weights_ok")
				act := s.TimedActivity("act", rng.Exponential{Rate: 1})
				act.InputArc(p, 1)
				act.OutputArc(p, 1)
				act.AddCase(weight(0.3), func() {})
				act.AddCase(weight(0.7), func() {})
				return m
			},
		},
		{
			Name:   "unknown-link-bad",
			Check:  sanalyze.CheckUnknownLink,
			Expect: []string{sanalyze.CheckDeadlockUnknown, sanalyze.CheckUnknownLink},
			Build: func() *san.Model {
				m, s, p := base("unknown_link_bad")
				act := cycler(s, p)
				act.Link(san.LinkInput, "s/no_such_place") // typo'd place name
				return m
			},
		},
		{
			Name:   "unknown-link-ok",
			Expect: []string{sanalyze.CheckDeadlockUnknown},
			Build: func() *san.Model {
				m, s, p := base("unknown_link_ok")
				act := cycler(s, p)
				act.Link(san.LinkInput, p.Name())
				return m
			},
		},
		{
			Name:  "never-read-bad",
			Check: sanalyze.CheckNeverRead,
			Expect: []string{
				sanalyze.CheckBoundUnproven, sanalyze.CheckDeadlockUnknown,
				sanalyze.CheckNeverRead, sanalyze.CheckUnbounded,
			},
			Build: func() *san.Model {
				m, s, p := base("never_read_bad")
				sink := s.Place("sink", 0)
				act := cycler(s, p)
				act.OutputArc(sink, 1) // tokens accumulate, nothing reads them
				return m
			},
		},
		{
			Name: "never-read-ok",
			// drain keeps pace with the producer only on average: the
			// sink is structurally unbounded.
			Expect: []string{
				sanalyze.CheckBoundUnproven, sanalyze.CheckDeadlockUnknown, sanalyze.CheckUnbounded,
			},
			Build: func() *san.Model {
				m, s, p := base("never_read_ok")
				sink := s.Place("sink", 0)
				act := cycler(s, p)
				act.OutputArc(sink, 1)
				drain := s.TimedActivity("drain", rng.Exponential{Rate: 1})
				drain.InputArc(sink, 1)
				return m
			},
		},
		{
			Name:  "never-written-bad",
			Check: sanalyze.CheckNeverWritten,
			// The initially empty, never-produced place also makes its
			// consumer dead; both findings are expected.
			Expect: []string{sanalyze.CheckDeadActivity, sanalyze.CheckNeverWritten},
			Build: func() *san.Model {
				m, s, p := base("never_written_bad")
				cycler(s, p)
				empty := s.Place("empty", 0)
				starved := s.TimedActivity("starved", rng.Exponential{Rate: 1})
				starved.InputArc(empty, 1) // no activity ever writes empty
				return m
			},
		},
		{
			Name: "never-written-ok",
			Build: func() *san.Model {
				m, s, p := base("never_written_ok")
				cycler(s, p)
				stocked := s.Place("stocked", 3) // initial tokens cover the reads
				consumer := s.TimedActivity("consumer", rng.Exponential{Rate: 1})
				consumer.InputArc(stocked, 1)
				return m
			},
		},
		{
			Name:   "dead-activity-cycle-bad",
			Check:  sanalyze.CheckDeadActivity,
			Expect: []string{sanalyze.CheckDeadActivity},
			Build: func() *san.Model {
				// Chicken-and-egg: ping needs a token in a (produced only
				// by pong), pong needs a token in b (produced only by
				// ping); both start empty, so neither can ever fire.
				m := san.NewModel("dead_activity_bad")
				s := m.Sub("s")
				pa := s.Place("a", 0)
				pb := s.Place("b", 0)
				live := s.Place("live", 1)
				cycler(s, live)
				ping := s.TimedActivity("ping", rng.Exponential{Rate: 1})
				ping.InputArc(pa, 1)
				ping.OutputArc(pb, 1)
				pong := s.TimedActivity("pong", rng.Exponential{Rate: 1})
				pong.InputArc(pb, 1)
				pong.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name: "dead-activity-cycle-ok",
			Build: func() *san.Model {
				// Same shape, but a starts marked: ping fires, feeding
				// pong, which feeds ping again.
				m := san.NewModel("dead_activity_ok")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				live := s.Place("live", 1)
				cycler(s, live)
				ping := s.TimedActivity("ping", rng.Exponential{Rate: 1})
				ping.InputArc(pa, 1)
				ping.OutputArc(pb, 1)
				pong := s.TimedActivity("pong", rng.Exponential{Rate: 1})
				pong.InputArc(pb, 1)
				pong.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name:  "instant-cycle-bad",
			Check: sanalyze.CheckInstantCycle,
			Expect: []string{
				sanalyze.CheckDeadlockUnknown, sanalyze.CheckInstantCycle, sanalyze.CheckLivelock,
			},
			Build: func() *san.Model {
				// Two instantaneous activities pass one token back and
				// forth; stabilization at t=0 would never terminate.
				m := san.NewModel("instant_cycle_bad")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				fwd := s.InstantActivity("fwd")
				fwd.InputArc(pa, 1)
				fwd.OutputArc(pb, 1)
				back := s.InstantActivity("back")
				back.InputArc(pb, 1)
				back.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name: "instant-cycle-ok",
			Build: func() *san.Model {
				// The return edge is a timed activity, so every
				// stabilization pass terminates and time advances between
				// round trips.
				m := san.NewModel("instant_cycle_ok")
				s := m.Sub("s")
				pa := s.Place("a", 1)
				pb := s.Place("b", 0)
				fwd := s.InstantActivity("fwd")
				fwd.InputArc(pa, 1)
				fwd.OutputArc(pb, 1)
				back := s.TimedActivity("back", rng.Exponential{Rate: 1})
				back.InputArc(pb, 1)
				back.OutputArc(pa, 1)
				return m
			},
		},
		{
			Name:  "unshared-join-bad",
			Check: sanalyze.CheckUnsharedJoin,
			Expect: []string{
				sanalyze.CheckBoundUnproven, sanalyze.CheckDeadlockUnknown, sanalyze.CheckUnsharedJoin,
			},
			Build: func() *san.Model {
				// An activity in submodel s2 consumes a place declared
				// only in s1 — the Join was never recorded. Its three
				// links to the place make one finding, not three.
				m := san.NewModel("unshared_join_bad")
				s1 := m.Sub("s1")
				s2 := m.Sub("s2")
				shared := s1.Place("shared", 1)
				cycler(s1, shared)
				poacher := s2.TimedActivity("poacher", rng.Exponential{Rate: 1})
				poacher.InputArc(shared, 1)
				poacher.Link(san.LinkInput, shared.Name())
				poacher.Link(san.LinkOutput, shared.Name())
				return m
			},
		},
		{
			Name:   "unshared-join-ok",
			Expect: []string{sanalyze.CheckDeadlock},
			Build: func() *san.Model {
				m := san.NewModel("unshared_join_ok")
				s1 := m.Sub("s1")
				s2 := m.Sub("s2")
				shared := s1.Place("shared", 1)
				cycler(s1, shared)
				s2.Share(shared) // the Join operation, declared
				consumer := s2.TimedActivity("consumer", rng.Exponential{Rate: 1})
				consumer.InputArc(shared, 1)
				return m
			},
		},
		{
			Name:   "reward-ref-bad",
			Check:  sanalyze.CheckRewardRef,
			Expect: []string{sanalyze.CheckRewardRef},
			Build: func() *san.Model {
				m, s, p := base("reward_ref_bad")
				cycler(s, p)
				m.AddRateReward("tokens", func() float64 { return float64(p.Tokens()) },
					"s/renamed_place") // stale reference after a rename
				return m
			},
		},
		{
			Name: "reward-ref-ok",
			Build: func() *san.Model {
				m, s, p := base("reward_ref_ok")
				cycler(s, p)
				m.AddRateReward("tokens", func() float64 { return float64(p.Tokens()) },
					p.Name())
				return m
			},
		},
		{
			Name:   "isolated-place-bad",
			Check:  sanalyze.CheckIsolatedPlace,
			Expect: []string{sanalyze.CheckIsolatedPlace},
			Build: func() *san.Model {
				m, s, p := base("isolated_place_bad")
				cycler(s, p)
				s.Place("forgotten", 2) // nothing links or measures it
				return m
			},
		},
		{
			Name: "isolated-place-ok",
			Build: func() *san.Model {
				m, s, p := base("isolated_place_ok")
				cycler(s, p)
				watched := s.Place("watched", 2)
				m.AddRateReward("watched_tokens",
					func() float64 { return float64(watched.Tokens()) }, watched.Name())
				return m
			},
		},
	}
}

// State returns the fixtures of the checks decided over the model's
// reachable markings and its invariants: boundedness, deadlock,
// reachability-exact dead activities and token conservation.
func State() []Fixture {
	return []Fixture{
		{
			Name:  "unbounded-place-bad",
			Check: sanalyze.CheckUnbounded,
			Expect: []string{
				sanalyze.CheckUnbounded, sanalyze.CheckNeverRead,
				// The growth cut leaves reachability incomplete, so the
				// pumped place also (correctly) lacks a bound certificate.
				sanalyze.CheckBoundUnproven,
			},
			Build: func() *san.Model {
				m := san.NewModel("unbounded_place_bad")
				s := m.Sub("s")
				buf := s.Place("buf", 0)
				// A producer with no consumer: every firing pumps buf.
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					OutputArc(buf, 1)
				return m
			},
		},
		{
			Name: "unbounded-place-ok",
			Build: func() *san.Model {
				m := san.NewModel("unbounded_place_ok")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				return m
			},
		},
		{
			Name:   "deadlock-bad",
			Check:  sanalyze.CheckDeadlock,
			Expect: []string{sanalyze.CheckDeadlock, sanalyze.CheckNeverRead},
			Build: func() *san.Model {
				m := san.NewModel("deadlock_bad")
				s := m.Sub("s")
				fuel := s.Place("fuel", 3)
				ash := s.Place("ash", 0)
				// fuel is consumed and never replenished: after three
				// firings no activity is enabled.
				s.TimedActivity("burn", rng.Exponential{Rate: 1}).
					InputArc(fuel, 1).OutputArc(ash, 1)
				return m
			},
		},
		{
			Name: "deadlock-ok",
			Build: func() *san.Model {
				m := san.NewModel("deadlock_ok")
				s := m.Sub("s")
				fuel := s.Place("fuel", 3)
				ash := s.Place("ash", 0)
				s.TimedActivity("burn", rng.Exponential{Rate: 1}).
					InputArc(fuel, 1).OutputArc(ash, 1)
				s.TimedActivity("refine", rng.Exponential{Rate: 1}).
					InputArc(ash, 1).OutputArc(fuel, 1)
				return m
			},
		},
		{
			Name:   "dead-activity-bad",
			Check:  sanalyze.CheckDeadActivity,
			Expect: []string{sanalyze.CheckDeadActivity, sanalyze.CheckInstantCycle},
			Build: func() *san.Model {
				m := san.NewModel("dead_activity_bad")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				never := s.Place("never", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// never is never marked, so audit is enabled in no
				// reachable marking.
				s.InstantActivity("audit").
					InputArc(never, 1).OutputArc(never, 1)
				return m
			},
		},
		{
			Name: "dead-activity-ok",
			Build: func() *san.Model {
				m := san.NewModel("dead_activity_ok")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				flag := s.Place("flag", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// raise marks flag; audit drains it during stabilization,
				// so both fire and flag earns a drain certificate.
				s.TimedActivity("raise", rng.Exponential{Rate: 1}).
					OutputArc(flag, 1)
				s.InstantActivity("audit").
					InputArc(flag, 1)
				return m
			},
		},
		{
			Name:   "conservation-bad",
			Check:  sanalyze.CheckConservation,
			Expect: []string{sanalyze.CheckConservation, sanalyze.CheckNeverRead},
			Build: func() *san.Model {
				m := san.NewModel("conservation_bad")
				s := m.Sub("s")
				a := s.Place("a", 2)
				b := s.Place("b", 0)
				run := s.Place("run", 1)
				// move duplicates tokens: a+b is declared conserved but
				// each firing grows the sum by one.
				s.TimedActivity("move", rng.Exponential{Rate: 1}).
					InputArc(a, 1).OutputArc(b, 2)
				s.TimedActivity("tick", rng.Exponential{Rate: 1}).
					InputArc(run, 1).OutputArc(run, 1)
				m.DeclareConservation("tokens",
					san.PlaceWeight{Place: a.Name(), Weight: 1},
					san.PlaceWeight{Place: b.Name(), Weight: 1})
				return m
			},
		},
		{
			Name:   "conservation-ok",
			Expect: []string{sanalyze.CheckNeverRead},
			Build: func() *san.Model {
				m := san.NewModel("conservation_ok")
				s := m.Sub("s")
				a := s.Place("a", 2)
				b := s.Place("b", 0)
				run := s.Place("run", 1)
				s.TimedActivity("move", rng.Exponential{Rate: 1}).
					InputArc(a, 1).OutputArc(b, 1)
				s.TimedActivity("tick", rng.Exponential{Rate: 1}).
					InputArc(run, 1).OutputArc(run, 1)
				m.DeclareConservation("tokens",
					san.PlaceWeight{Place: a.Name(), Weight: 1},
					san.PlaceWeight{Place: b.Name(), Weight: 1})
				return m
			},
		},
		{
			Name:     "disabled-not-dead",
			Disabled: []string{"s/backup"},
			Build: func() *san.Model {
				m := san.NewModel("disabled_not_dead")
				s := m.Sub("s")
				idle := s.Place("idle", 1)
				busy := s.Place("busy", 0)
				s.TimedActivity("produce", rng.Exponential{Rate: 1}).
					InputArc(idle, 1).OutputArc(busy, 1)
				s.TimedActivity("release", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				// backup would fire when enabled, but the run disables it
				// (a fault plan keeping an injector dormant): reachability
				// must exclude it rather than call it dead.
				s.TimedActivity("backup", rng.Exponential{Rate: 1}).
					InputArc(busy, 1).OutputArc(idle, 1)
				return m
			},
		},
	}
}

// weight wraps a constant case weight.
func weight(w float64) func() float64 {
	return func() float64 { return w }
}

// base creates a model with one submodel and one marked place.
func base(name string) (*san.Model, *san.Sub, *san.Place) {
	m := san.NewModel(name)
	s := m.Sub("s")
	p := s.Place("p", 1)
	return m, s, p
}

// cycler adds a timed activity that consumes and reproduces one token of p,
// keeping p live (read and written) without involving other places.
func cycler(s *san.Sub, p *san.Place) *san.Activity {
	act := s.TimedActivity("cycle_"+shortName(p), rng.Exponential{Rate: 1})
	act.InputArc(p, 1)
	act.OutputArc(p, 1)
	return act
}

// shortName strips the submodel prefix for component naming.
func shortName(p *san.Place) string {
	name := p.Name()
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
