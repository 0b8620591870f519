package san

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"vcpusim/internal/rng"
)

var updateStabilize = flag.Bool("update-stabilize", false, "rewrite the instantaneous-chain golden fixture from the current engine")

// buildHopChain is a pure-arc instantaneous chain of n hops: an
// exponential clock feeds place 0, hop i moves a token from place i to
// place i+1, and a uniform reaper drains the last place. With reverse
// set, the hops are declared last to first, so every hop's firing enables
// an activity earlier in the (priority, definition) scan order.
func buildHopChain(n int, reverse bool) *Model {
	m := NewModel("hops")
	s := m.Sub("c")
	places := make([]*Place, n+1)
	for i := range places {
		places[i] = s.Place(fmt.Sprintf("p%d", i), 0)
	}
	s.TimedActivity("clock", rng.Exponential{Rate: 2}).OutputArc(places[0], 1)
	hops := make([]*Activity, n)
	for k := 0; k < n; k++ {
		i := k
		if reverse {
			i = n - 1 - k
		}
		hops[i] = s.InstantActivity(fmt.Sprintf("hop%d", i))
		hops[i].InputArc(places[i], 1).OutputArc(places[i+1], 1)
	}
	s.TimedActivity("reap", rng.Uniform{Low: 0.2, High: 0.6}).InputArc(places[n], 1)
	m.AddRateReward("end", func() float64 { return float64(places[n].Tokens()) }, places[n].Name())
	m.AddImpulseReward("through", hops[n-1], nil)
	return m
}

// stabilizeGoldenCases are the models the instantaneous-chain fixture
// pins: the gated chain workbench and pure-arc chains, forward and
// reverse, narrow enough for the dense touch masks and wide enough for
// the sparse touch ops.
func stabilizeGoldenCases() []struct {
	name  string
	build func() *Model
} {
	return []struct {
		name  string
		build func() *Model
	}{
		{"chain", buildChainModel},
		{"hops300", func() *Model { return buildHopChain(300, false) }},
		{"hops48rev", func() *Model { return buildHopChain(48, true) }},
	}
}

// runStabilizeCase runs one model over seeds 1-5 on one pooled instance
// and renders each replication's Results and Stats as name -> exact
// string (rewards as hexadecimal floats).
func runStabilizeCase(t *testing.T, build func() *Model) []map[string]string {
	t.Helper()
	prog, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	in, err := prog.NewInstance()
	if err != nil {
		t.Fatal(err)
	}
	in.EnableActivityStats()
	names := prog.ActivityNames()
	var out []map[string]string
	for seed := uint64(1); seed <= 5; seed++ {
		in.Reset(seed)
		res, err := in.RunInterval(10, 500)
		if err != nil {
			t.Fatal(err)
		}
		st := in.Stats()
		row := map[string]string{
			"_events":            strconv.FormatUint(res.Events, 10),
			"_firings":           strconv.FormatUint(res.Firings, 10),
			"_timedFirings":      strconv.FormatUint(st.TimedFirings, 10),
			"_instFirings":       strconv.FormatUint(st.InstFirings, 10),
			"_aborts":            strconv.FormatUint(st.Aborts, 10),
			"_stabilizeIters":    strconv.FormatUint(st.StabilizeIters, 10),
			"_maxStabilizeDepth": strconv.FormatUint(st.MaxStabilizeDepth, 10),
			"_eventsScheduled":   strconv.FormatUint(st.EventsScheduled, 10),
			"_eventsCancelled":   strconv.FormatUint(st.EventsCancelled, 10),
		}
		for name, v := range res.Rates {
			row["rate/"+name] = strconv.FormatFloat(v, 'x', -1, 64)
		}
		for name, v := range res.Impulses {
			row["impulse/"+name] = strconv.FormatFloat(v, 'x', -1, 64)
		}
		for i, n := range st.ActivityFirings {
			row["fired/"+names[i]] = strconv.FormatUint(n, 10)
		}
		out = append(out, row)
	}
	return out
}

func stabilizeGoldenPath() string { return filepath.Join("testdata", "golden_stabilize.json") }

// TestGoldenStabilizeChains pins the trajectory of instantaneous chains
// bit for bit — every reward, counter and per-activity firing count over
// five seeds — as recorded by the executor that continued fused chains in
// place. The lowest-candidate stabilization loop must reproduce it
// exactly. Run with -update-stabilize to re-record; only a deliberate
// change of firing semantics justifies that.
func TestGoldenStabilizeChains(t *testing.T) {
	got := make(map[string][]map[string]string)
	for _, c := range stabilizeGoldenCases() {
		got[c.name] = runStabilizeCase(t, c.build)
	}
	if *updateStabilize {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stabilizeGoldenPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", stabilizeGoldenPath())
		return
	}
	buf, err := os.ReadFile(stabilizeGoldenPath())
	if err != nil {
		t.Fatalf("missing stabilize golden fixture (run with -update-stabilize to record): %v", err)
	}
	var want map[string][]map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt stabilize golden fixture: %v", err)
	}
	for _, c := range stabilizeGoldenCases() {
		w, g := want[c.name], got[c.name]
		if len(w) != len(g) {
			t.Errorf("%s: %d seeds recorded, %d run", c.name, len(w), len(g))
			continue
		}
		for i := range w {
			if reflect.DeepEqual(w[i], g[i]) {
				continue
			}
			keys := make([]string, 0, len(w[i]))
			for k := range w[i] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if g[i][k] != w[i][k] {
					t.Errorf("%s seed %d: %s = %s, want %s", c.name, i+1, k, g[i][k], w[i][k])
				}
			}
			if len(g[i]) != len(w[i]) {
				t.Errorf("%s seed %d: %d values, want %d", c.name, i+1, len(g[i]), len(w[i]))
			}
		}
	}
}

// TestStabilizeFiresLowestCandidate pins the stabilization rule: after
// every firing the lowest set candidate in (priority, definition) order
// is examined next, and a disabled candidate is walked past without
// restarting the scan.
func TestStabilizeFiresLowestCandidate(t *testing.T) {
	firingOrder := func(m *Model) []string {
		t.Helper()
		r, err := NewRunner(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		var fired []string
		r.SetFireHooks(func(a *Activity) { fired = append(fired, a.Name()) }, nil)
		if _, err := r.Run(1); err != nil {
			t.Fatal(err)
		}
		return fired
	}

	t.Run("later firing enables earlier activity", func(t *testing.T) {
		// x (priority 2) feeds y (priority 1); z (priority 3) is enabled
		// from the start. y must fire right after x, ahead of z.
		m := NewModel("order")
		s := m.Sub("s")
		a, b, c := s.Place("a", 1), s.Place("b", 0), s.Place("c", 0)
		d, e := s.Place("d", 1), s.Place("e", 0)
		s.InstantActivity("y").Priority(1).InputArc(b, 1).OutputArc(c, 1)
		s.InstantActivity("x").Priority(2).InputArc(a, 1).OutputArc(b, 1)
		s.InstantActivity("z").Priority(3).InputArc(d, 1).OutputArc(e, 1)
		if got, want := firingOrder(m), []string{"s/x", "s/y", "s/z"}; !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
	})

	t.Run("disabled candidate walked past", func(t *testing.T) {
		// w is a wildcard (undocumented reads), folded back into the
		// candidates after every firing, so its predicate runs once per
		// scan from the top: once initially and once after f's firing.
		// Restarting after the disabled candidate dead would run it more.
		m := NewModel("walk")
		s := m.Sub("s")
		dp, fp, gp := s.Place("dp", 0), s.Place("fp", 1), s.Place("gp", 0)
		calls := 0
		s.InstantActivity("w").Priority(0).Predicate(func() bool { calls++; return false })
		s.InstantActivity("dead").Priority(1).InputArc(dp, 1)
		s.InstantActivity("f").Priority(2).InputArc(fp, 1).OutputArc(gp, 1)
		if got, want := firingOrder(m), []string{"s/f"}; !reflect.DeepEqual(got, want) {
			t.Errorf("firing order %v, want %v", got, want)
		}
		if calls != 2 {
			t.Errorf("wildcard predicate evaluated %d times, want 2 (one scan per firing plus the last)", calls)
		}
	})
}
