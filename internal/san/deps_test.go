package san

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

// buildDepsNet is a net exercising every classification the compiler
// makes: arc-only readers (one of them documenting a case read), gate
// predicates with documented input links, predicates with no documented
// reads (wildcards), always-enabled activities, and rate rewards with
// place refs, projection refs, activity refs, and no refs.
func buildDepsNet() *Model {
	m := NewModel("deps")
	s := m.Sub("s")
	p := s.Place("p", 1)
	q := s.Place("q", 0)
	r := s.Place("r", 0)
	x := NewExtPlace(s, "x", func() [2]int { return [2]int{} })

	// consume: pure-arc reader of p.
	consume := s.InstantActivity("consume")
	consume.InputArc(p, 1).OutputArc(q, 1)

	// drain: arc-only predicate on q; its case reads r and writes x, which
	// the input link documents without making drain a reader of r.
	drain := s.InstantActivity("drain")
	drain.InputArc(q, 2).Link(LinkInput, r.Name()).Link(LinkOutput, x.Name())
	drain.AddCase(nil, func() {
		if r.Tokens() > 0 {
			x.Get()[1]++
		}
		x.Get()[0]++
	})

	// gated: opaque predicate reading q, documented by a zero-count link.
	gated := s.TimedActivity("gated", rng.Exponential{Rate: 1})
	gated.Predicate(func() bool { return q.Tokens() > 0 }).
		Link(LinkInput, q.Name()).
		AddCase(nil, func() { q.Add(-1); r.Add(1) })
	gated.Link(LinkOutput, q.Name()).Link(LinkOutput, r.Name())

	// wild: a predicate with no documented input link at all.
	wild := s.TimedActivity("wild", rng.Exponential{Rate: 1})
	wild.Predicate(func() bool { return r.Tokens() > 10 }).AddCase(nil, func() {})

	// free: always enabled, documented output only — reconsidered after
	// its own completions, never via place dirt.
	free := s.TimedActivity("free", rng.Exponential{Rate: 1})
	free.AddCase(nil, func() { r.Add(1) })
	free.Link(LinkOutput, r.Name())

	m.AddRateReward("watchP", func() float64 { return float64(p.Tokens()) }, p.Name())
	m.AddRateReward("countGated", func() float64 { return 0 }, gated.Name())
	m.AddRateReward("opaque", func() float64 { return 1 })
	m.AddRateReward("watchX0", func() float64 { return float64(x.Peek()[0]) },
		x.Project("first", func(v *[2]int) uint64 { return uint64(v[0]) }))
	m.AddRateReward("watchX", func() float64 { return float64(x.Peek()[1]) }, x.Name())
	return m
}

// TestDependencyGraphSmallNets hand-checks the compiled enabling-dependency
// graph on buildDepsNet.
func TestDependencyGraphSmallNets(t *testing.T) {
	prog, err := Compile(buildDepsNet())
	if err != nil {
		t.Fatal(err)
	}

	assertDeps := func(place string, wantTimed, wantInst, wantRates []string) {
		t.Helper()
		timed, inst, rates, ok := prog.Dependents(place)
		if !ok {
			t.Fatalf("Dependents(%q): place unknown", place)
		}
		for got, want := range map[*[]string][]string{&timed: wantTimed, &inst: wantInst, &rates: wantRates} {
			sort.Strings(*got)
			sort.Strings(want)
			if len(*got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(*got, want) {
					t.Errorf("Dependents(%q) = timed %v inst %v rates %v, want %v/%v/%v",
						place, timed, inst, rates, wantTimed, wantInst, wantRates)
					return
				}
			}
		}
	}
	assertDeps("s/p", nil, []string{"s/consume"}, []string{"watchP"})
	assertDeps("s/q", []string{"s/gated"}, []string{"s/drain"}, nil)
	// wild's read of r is undocumented; drain's is a case read.
	assertDeps("s/r", nil, nil, nil)
	assertDeps("s/x", nil, nil, []string{"watchX"})
	assertDeps("s/x.first", nil, nil, []string{"watchX0"})

	wilds := prog.WildcardActivities()
	sort.Strings(wilds)
	if !reflect.DeepEqual(wilds, []string{"s/wild"}) {
		t.Errorf("WildcardActivities = %v, want [s/wild]", wilds)
	}

	if _, _, _, ok := prog.Dependents("s/nonexistent"); ok {
		t.Error("Dependents of unknown place reported ok")
	}
}

// bruteForceDeps recomputes a place's or projection's dependents from the
// structure snapshot and the rewards' declared refs, mirroring the
// documented compilation rule: an activity whose predicates are all input
// arcs depends on its arc places only; any other activity with predicates
// depends on every place named by one of its input links; one with no
// documented input link is a wildcard; one with no predicates has no place
// dependencies at all (instantaneous ones become wildcards so they stay
// always-considered). Rate rewards depend on each place or projection
// named in their declared Refs (the snapshot shows a projection as its
// place).
func bruteForceDeps(m *Model, st Structure, place string) (timed, inst, rates []string) {
	known := make(map[string]bool, len(st.Places))
	for _, p := range st.Places {
		known[p.Name] = true
	}
	for i, a := range st.Activities {
		if a.Predicates == 0 {
			continue
		}
		reads := false
		if a.GatePredicates == 0 {
			// Input arcs alone (the snapshot lists activities in
			// definition order).
			for _, arc := range m.activities[i].arcs {
				reads = reads || arc.delta < 0 && arc.p.name == place && known[place]
			}
		} else {
			for _, l := range a.Links {
				reads = reads || l.Kind == LinkInput && l.Place == place && known[place]
			}
		}
		if !reads {
			continue
		}
		if a.Kind == Timed {
			timed = append(timed, a.Name)
		} else {
			inst = append(inst, a.Name)
		}
	}
	for _, r := range m.rates {
		for _, ref := range r.Refs {
			if ref == place {
				rates = append(rates, r.Name)
			}
		}
	}
	return timed, inst, rates
}

// TestDependencyGraphMatchesStructure cross-checks the compiled graph
// against the brute-force recomputation on the tandem benchmark model —
// every arc documented, so every place must resolve identically — and on
// the chain workbench (arc-only activities with cases) and
// buildDepsNet (projection refs, case reads documented as input links).
func TestDependencyGraphMatchesStructure(t *testing.T) {
	for i, m := range []*Model{buildTandem(7), buildChainModel(), buildDepsNet()} {
		prog, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		if wilds := prog.WildcardActivities(); i == 0 && len(wilds) != 0 {
			t.Errorf("tandem has undocumented readers: %v", wilds)
		}
		st := m.Structure()
		names := make([]string, 0, len(st.Places)+len(m.projections))
		for _, pl := range st.Places {
			names = append(names, pl.Name)
		}
		for _, pr := range m.projections {
			names = append(names, pr.name)
		}
		for _, name := range names {
			gotT, gotI, gotR, ok := prog.Dependents(name)
			if !ok {
				t.Fatalf("%s: %s not in compiled graph", m.Name(), name)
			}
			wantT, wantI, wantR := bruteForceDeps(m, st, name)
			sort.Strings(gotT)
			sort.Strings(gotI)
			sort.Strings(gotR)
			sort.Strings(wantT)
			sort.Strings(wantI)
			sort.Strings(wantR)
			if !equalNames(gotT, wantT) || !equalNames(gotI, wantI) || !equalNames(gotR, wantR) {
				t.Errorf("%s: %s: compiled deps %v/%v/%v, brute force %v/%v/%v",
					m.Name(), name, gotT, gotI, gotR, wantT, wantI, wantR)
			}
		}
	}
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildChainModel is the instantaneous-chain workbench: an exponential
// clock drives a token through a pure-arc instantaneous chain (compiled
// firing plans) into a gated instantaneous splitter (probabilistic cases,
// run as closures), with rate and impulse rewards watching the flow.
func buildChainModel() *Model {
	m := NewModel("chain")
	s := m.Sub("s")
	start := s.Place("start", 0)
	mid1 := s.Place("mid1", 0)
	mid2 := s.Place("mid2", 0)
	left := s.Place("left", 0)
	right := s.Place("right", 0)
	sink := s.Place("sink", 0)

	clock := s.TimedActivity("clock", rng.Exponential{Rate: 2})
	clock.OutputArc(start, 1)

	hop1 := s.InstantActivity("hop1")
	hop1.InputArc(start, 1).OutputArc(mid1, 1)
	hop2 := s.InstantActivity("hop2")
	hop2.InputArc(mid1, 1).OutputArc(mid2, 1)

	split := s.InstantActivity("split")
	split.InputArc(mid2, 1)
	split.AddCase(func() float64 { return 3 }, func() { left.Add(1) })
	split.AddCase(func() float64 { return 1 }, func() { right.Add(1) })
	split.Link(LinkOutput, left.Name()).Link(LinkOutput, right.Name())

	drainL := s.InstantActivity("drainL")
	drainL.InputArc(left, 1).OutputArc(sink, 1)
	drainR := s.InstantActivity("drainR")
	drainR.InputArc(right, 1).OutputArc(sink, 1)

	reap := s.TimedActivity("reap", rng.Uniform{Low: 0.5, High: 1.5})
	reap.InputArc(sink, 1)

	m.AddRateReward("backlog", func() float64 { return float64(sink.Tokens()) }, sink.Name())
	m.AddRateReward("leftShare", func() float64 { return float64(left.Tokens()) }, left.Name())
	m.AddImpulseReward("hops", hop2, nil)
	return m
}

// TestFusedTouchMatchesPerStepTouch: on a narrow dirty arena a compiled
// firing marks its whole touch set with one OR of its fireTouch row; on a
// wide arena it touches place by place. Both must mark the same dirty
// state, so stripping the fused rows leaves the trajectory bit-identical.
// The models cover the dense three-word touch masks (chain) and the
// sparse touch ops (tandem: no instantaneous activities).
func TestFusedTouchMatchesPerStepTouch(t *testing.T) {
	for _, build := range []func() *Model{buildChainModel, func() *Model { return buildTandem(16) }} {
		fused, err := Compile(build())
		if err != nil {
			t.Fatal(err)
		}
		perStep, err := Compile(build())
		if err != nil {
			t.Fatal(err)
		}
		stripped := 0
		for _, ap := range append(append([]*actPlan(nil), perStep.timed...), perStep.instants...) {
			if ap.fireTouch != nil {
				ap.fireTouch = nil
				stripped++
			}
		}
		if stripped == 0 {
			t.Fatalf("%s: no fused touches compiled; test would be vacuous", fused.Model().Name())
		}
		requireSameRuns(t, fused, perStep)
	}
}

// requireSameRuns runs both programs over the same five seeds and fails
// unless every reward value, counter and engine statistic is
// bit-identical.
func requireSameRuns(t *testing.T, a, b *Program) {
	t.Helper()
	run := func(prog *Program) ([]Results, []Stats) {
		in, err := prog.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		var results []Results
		var stats []Stats
		for seed := uint64(1); seed <= 5; seed++ {
			in.Reset(seed)
			res, err := in.RunInterval(10, 500)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
			stats = append(stats, in.Stats())
		}
		return results, stats
	}
	aRes, aStats := run(a)
	bRes, bStats := run(b)
	for i := range aRes {
		for name, v := range aRes[i].Rates {
			if math.Float64bits(v) != math.Float64bits(bRes[i].Rates[name]) {
				t.Errorf("seed %d: rate %s differs: %x vs %x", i+1, name, v, bRes[i].Rates[name])
			}
		}
		for name, v := range aRes[i].Impulses {
			if math.Float64bits(v) != math.Float64bits(bRes[i].Impulses[name]) {
				t.Errorf("seed %d: impulse %s differs: %x vs %x", i+1, name, v, bRes[i].Impulses[name])
			}
		}
		if aRes[i].Events != bRes[i].Events || aRes[i].Firings != bRes[i].Firings {
			t.Errorf("seed %d: counters differ: %d/%d vs %d/%d", i+1,
				aRes[i].Events, aRes[i].Firings, bRes[i].Events, bRes[i].Firings)
		}
		if !reflect.DeepEqual(aStats[i], bStats[i]) {
			t.Errorf("seed %d: stats differ:\n%+v\n%+v", i+1, aStats[i], bStats[i])
		}
	}
}

// TestLivelockNamesCyclingActivities seeds the classic defect — two
// instantaneous activities passing a token back and forth — and requires
// the livelock error to name both cycling activities, not only the depth.
func TestLivelockNamesCyclingActivities(t *testing.T) {
	m := NewModel("pingpong")
	s := m.Sub("s")
	p := s.Place("p", 1)
	q := s.Place("q", 0)
	ping := s.InstantActivity("ping")
	ping.InputArc(p, 1).OutputArc(q, 1)
	pong := s.InstantActivity("pong")
	pong.InputArc(q, 1).OutputArc(p, 1)

	r, err := NewRunner(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(1)
	if err == nil {
		t.Fatal("livelock not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "instantaneous livelock") {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, name := range []string{"s/ping", "s/pong"} {
		if !strings.Contains(msg, name) {
			t.Errorf("livelock error does not name cycling activity %s: %v", name, err)
		}
	}
}
