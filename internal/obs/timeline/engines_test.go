package timeline

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/fastsim"
)

// fig8 loads the shipped Figure 8 experiment.
func fig8(t *testing.T) *config.Experiment {
	t.Helper()
	f, err := os.Open("../../../cmd/vcpusim/testdata/fig8.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exp, err := config.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// tracks reduces a finished timeline to one line per interval, track by
// track, with zero-length intervals dropped and touching intervals of
// one state merged: the form in which the engines' timelines agree,
// since the SAN engine also passes through the intermediate states of
// an instant that the fast engine's once-per-tick observation skips.
func tracks(tr *Tracker) []string {
	type key struct{ pid, tid int }
	merged := make(map[key][]span)
	for _, s := range tr.spans {
		if s.instant != "" || s.to <= s.from {
			continue
		}
		k := key{s.pid, s.tid}
		if l := merged[k]; len(l) > 0 && l[len(l)-1].state == s.state && l[len(l)-1].to == s.from {
			l[len(l)-1].to = s.to
			continue
		}
		merged[k] = append(merged[k], s)
	}
	var out []string
	for _, pid := range []int{pidVCPUs, pidPCPUs} {
		for tid := 0; tid < len(tr.vLast) || tid < len(tr.pLast); tid++ {
			for _, s := range merged[key{pid, tid}] {
				out = append(out, fmt.Sprintf("%d/%d %s [%g, %g)", pid, tid, tr.stateName(s), s.from, s.to))
			}
		}
	}
	return out
}

// fastTracks records the fast engine's timeline, stamping each tick
// hook call shift ticks late.
func fastTracks(t *testing.T, cfg core.SystemConfig, factory core.SchedulerFactory, horizon int64, seed uint64, shift int64) []string {
	t.Helper()
	eng, err := fastsim.New(cfg, factory(), seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(eng)
	eng.SetTickHook(func(now int64) { tr.Observe(float64(now + shift)) })
	if _, err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	tr.Finish(float64(horizon))
	return tracks(tr)
}

// sanTracks records the SAN engine's timeline from its post-fire hook.
func sanTracks(t *testing.T, cfg core.SystemConfig, factory core.SchedulerFactory, horizon int64, seed uint64) []string {
	t.Helper()
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(w.System())
	tr.Install(w.Instance())
	if _, err := w.Run(float64(horizon), seed); err != nil {
		t.Fatal(err)
	}
	tr.Finish(float64(horizon))
	return tracks(tr)
}

// TestTracksMatchAcrossEngines drives the one tracker from both
// engines on the Figure 8 config under five schedulers and three seeds:
// the VCPU and PCPU tracks must be equal, and stamping the fast
// engine's observations one tick late (the hook placed at the top of
// the next tick) must break the equality.
func TestTracksMatchAcrossEngines(t *testing.T) {
	exp := fig8(t)
	cfg, err := exp.SystemConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RRS", "SCS", "RCS", "Balance", "Credit"} {
		exp.Scheduler.Name = name
		factory, err := exp.SchedulerFactory()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				want := sanTracks(t, cfg, factory, exp.HorizonTicks, seed)
				got := fastTracks(t, cfg, factory, exp.HorizonTicks, seed, 0)
				if len(want) == 0 {
					t.Fatal("empty SAN timeline")
				}
				if !reflect.DeepEqual(got, want) {
					for i := 0; i < min(len(got), len(want)); i++ {
						if got[i] != want[i] {
							t.Fatalf("interval %d: fast %q, SAN %q (%d vs %d intervals)", i, got[i], want[i], len(got), len(want))
						}
					}
					t.Fatalf("fast engine recorded %d intervals, SAN %d", len(got), len(want))
				}
				if late := fastTracks(t, cfg, factory, exp.HorizonTicks, seed, 1); reflect.DeepEqual(late, want) {
					t.Fatal("tracks still match with the fast engine's observations one tick late")
				}
			})
		}
	}
}
