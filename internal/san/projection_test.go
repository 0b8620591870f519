package san_test

import (
	"math"
	"reflect"
	"testing"

	"vcpusim/internal/rng"
	"vcpusim/internal/san"
	"vcpusim/internal/sanalyze"
)

// unit is the extended place of the projection workbench: a server whose
// Busy flag changes once per job while Done changes on every busy tick.
type unit struct {
	Busy bool
	Done int64
}

func busyKey(u *unit) uint64 {
	if u.Busy {
		return 1
	}
	return 0
}

// projectionModel builds the workbench: a unit clock drives a server that
// works four ticks per job, and jobs arrive at exponential times while it
// idles. The "busy" reward reads only Busy and documents the ref that ref
// returns; calls counts its evaluations. The "progress" reward reads Done
// and always refs the whole place.
func projectionModel(ref func(*san.ExtPlace[unit]) string, calls *int) *san.Model {
	m := san.NewModel("proj")
	s := m.Sub("s")
	tick := s.Place("tick", 0)
	u := san.NewExtPlace(s, "unit", func() unit { return unit{} })

	clock := s.TimedActivity("clock", rng.Deterministic{Value: 1})
	clock.OutputArc(tick, 1)

	work := s.InstantActivity("work")
	work.InputArc(tick, 1)
	work.Link(san.LinkInput, u.Name()).Link(san.LinkOutput, u.Name())
	work.AddCase(nil, func() {
		if !u.Peek().Busy {
			return
		}
		v := u.Get()
		v.Done++
		if v.Done == 4 {
			*v = unit{}
		}
	})

	arrive := s.TimedActivity("arrive", rng.Exponential{Rate: 0.3})
	arrive.Predicate(func() bool { return !u.Peek().Busy })
	arrive.Link(san.LinkInput, u.Name()).Link(san.LinkOutput, u.Name())
	arrive.AddCase(nil, func() { u.Get().Busy = true })

	m.AddRateReward("busy", func() float64 {
		*calls++
		if u.Peek().Busy {
			return 1
		}
		return 0
	}, ref(u))
	m.AddRateReward("progress", func() float64 { return float64(u.Peek().Done) }, u.Name())
	m.AddImpulseReward("jobs", arrive, nil)
	return m
}

type projRun struct {
	res   []san.Results
	stats []san.Stats
	calls int
}

func runProjectionModel(t *testing.T, ref func(*san.ExtPlace[unit]) string) projRun {
	t.Helper()
	var out projRun
	m := projectionModel(ref, &out.calls)
	prog, err := san.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		in.Reset(seed)
		res, err := in.RunInterval(10, 2000)
		if err != nil {
			t.Fatal(err)
		}
		out.res = append(out.res, res)
		out.stats = append(out.stats, in.Stats())
	}
	return out
}

func sameResults(a, b san.Results) bool {
	if a.Events != b.Events || a.Firings != b.Firings || len(a.Rates) != len(b.Rates) || len(a.Impulses) != len(b.Impulses) {
		return false
	}
	for name, v := range a.Rates {
		if math.Float64bits(v) != math.Float64bits(b.Rates[name]) {
			return false
		}
	}
	for name, v := range a.Impulses {
		if math.Float64bits(v) != math.Float64bits(b.Impulses[name]) {
			return false
		}
	}
	return true
}

// TestProjectionRefs is the projection contract: a reward that refs a
// projection of an extended place instead of the place yields bit-identical
// results with fewer reward evaluations, the event loop still allocates
// nothing, and static analysis sees the ref as the place. A key that drops
// what the reward reads must change the results, or the comparison could
// not tell a projection from no invalidation at all.
func TestProjectionRefs(t *testing.T) {
	placeRef := func(u *san.ExtPlace[unit]) string { return u.Name() }
	projRef := func(u *san.ExtPlace[unit]) string { return u.Project("Busy", busyKey) }

	whole := runProjectionModel(t, placeRef)
	proj := runProjectionModel(t, projRef)
	for i := range whole.res {
		if !sameResults(whole.res[i], proj.res[i]) {
			t.Errorf("seed %d: place ref %+v, projection ref %+v", i+1, whole.res[i], proj.res[i])
		}
		if !reflect.DeepEqual(whole.stats[i], proj.stats[i]) {
			t.Errorf("seed %d: stats differ:\n%+v\n%+v", i+1, whole.stats[i], proj.stats[i])
		}
	}
	if proj.calls >= whole.calls {
		t.Errorf("projection ref evaluated the reward %d times, place ref %d: no saving", proj.calls, whole.calls)
	}
	t.Logf("reward evaluations: place ref %d, projection ref %d", whole.calls, proj.calls)

	// A key blind to Busy never reports a change after the first
	// observation, so the reward keeps its initial value.
	blind := runProjectionModel(t, func(u *san.ExtPlace[unit]) string {
		return u.Project("Busy", func(*unit) uint64 { return 0 })
	})
	if sameResults(whole.res[0], blind.res[0]) {
		t.Error("a key that drops Busy left the results unchanged; the comparison is vacuous")
	}

	// Steady state: stepping events allocates nothing.
	var calls int
	prog, err := san.Compile(projectionModel(projRef, &calls))
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	in.Reset(3)
	if err := in.BeginRun(0, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		in.ProcessNextEvent()
	}
	if allocs := testing.AllocsPerRun(1000, func() { in.ProcessNextEvent() }); allocs != 0 {
		t.Errorf("event loop with a projection ref allocates %g per event", allocs)
	}

	// Static analysis resolves the projection to its place.
	st := projectionModel(projRef, &calls).Structure()
	for _, r := range st.Rewards {
		if r.Name == "busy" && !reflect.DeepEqual(r.Refs, []string{"s/unit"}) {
			t.Errorf("structure shows busy's refs as %v, want [s/unit]", r.Refs)
		}
	}
	for _, f := range sanalyze.Analyze(st, sanalyze.Options{}).Findings {
		if f.Check == sanalyze.CheckRewardRef {
			t.Errorf("projection ref reported: %v", f)
		}
	}
}
