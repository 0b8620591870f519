package fastsim

import (
	"fmt"
	"math"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sched"
)

// stepEvery hides the SkipTicks method of the scheduler it wraps, so an
// engine built on it calls Schedule on every tick: the reference the
// skipping engine must equal.
type stepEvery struct{ core.Scheduler }

// countCalls forwards both Schedule and SkipTicks and counts the Schedule
// calls, so a test can tell how many ticks the engine skipped.
type countCalls struct {
	core.Scheduler
	skip  core.TickSkipper
	calls int64
}

func (c *countCalls) Schedule(now int64, vcpus []core.VCPUView, pcpus []core.PCPUView, acts *core.Actions) {
	c.calls++
	c.Scheduler.Schedule(now, vcpus, pcpus, acts)
}

func (c *countCalls) SkipTicks(vcpus []core.VCPUView, pcpus []core.PCPUView, limit int64) int64 {
	return c.skip.SkipTicks(vcpus, pcpus, limit)
}

// sameBits reports whether two metric maps hold the same keys with
// bit-identical values, naming the first difference.
func sameBits(got, want map[string]float64) (string, bool) {
	if len(got) != len(want) {
		return fmt.Sprintf("%d metrics, want %d", len(got), len(want)), false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %x, want %x", k, math.Float64bits(g), math.Float64bits(w)), false
		}
	}
	return "", true
}

// TestSkippedTicksMatchEveryTick runs every registered scheduler on the
// barrier, spinlock and mixed systems at several warmups, once as it is
// (the engine skips quiet ticks where the scheduler is a
// core.TickSkipper) and once behind stepEvery, and requires bit-identical
// windows from RunWindowed at window lengths from the whole span down to
// one tick, a bit-identical RunInterval and equal engine Stats.
func TestSkippedTicksMatchEveryTick(t *testing.T) {
	const span = 630
	for _, name := range sched.Names() {
		factory, err := sched.Factory(name, sched.Params{Timeslice: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range occupancyConfigs() {
			for _, warmup := range []int64{0, 1, 100, 999} {
				t.Run(fmt.Sprintf("%s/%s/warmup=%d", name, c.name, warmup), func(t *testing.T) {
					newPair := func() (skipping, stepping *Engine) {
						skipping, err := New(c.cfg, factory(), 11)
						if err != nil {
							t.Fatal(err)
						}
						stepping, err = New(c.cfg, stepEvery{factory()}, 11)
						if err != nil {
							t.Fatal(err)
						}
						return skipping, stepping
					}
					horizon := warmup + span
					for _, window := range []int64{span, 90, 7, 1} {
						skipping, stepping := newPair()
						got, err := skipping.RunWindowed(warmup, horizon, window)
						if err != nil {
							t.Fatal(err)
						}
						want, err := stepping.RunWindowed(warmup, horizon, window)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("window=%d: %d windows, stepping every tick %d", window, len(got), len(want))
						}
						for k := range want {
							if diff, ok := sameBits(got[k], want[k]); !ok {
								t.Fatalf("window=%d, window %d: %s", window, k, diff)
							}
						}
						if g, w := skipping.Stats(), stepping.Stats(); g != w {
							t.Fatalf("window=%d: stats %+v, stepping every tick %+v", window, g, w)
						}
					}
					skipping, stepping := newPair()
					got, err := skipping.RunInterval(warmup, horizon)
					if err != nil {
						t.Fatal(err)
					}
					want, err := stepping.RunInterval(warmup, horizon)
					if err != nil {
						t.Fatal(err)
					}
					if diff, ok := sameBits(got, want); !ok {
						t.Fatalf("RunInterval: %s", diff)
					}
					if g, w := skipping.Stats(), stepping.Stats(); g != w {
						t.Fatalf("RunInterval: stats %+v, stepping every tick %+v", g, w)
					}
				})
			}
		}
	}
}

// TestFigure8SchedulesOnFewTicks runs each Figure 8 cell (RRS, SCS and
// RCS on one to four PCPUs, timeslice 30) with a counting wrapper that
// forwards SkipTicks, and requires Schedule on at most 55 % of the ticks:
// an engine that stopped skipping would call it on all of them. Each
// cell's result must still equal stepping every tick.
func TestFigure8SchedulesOnFewTicks(t *testing.T) {
	const warmup, horizon = 1000, 20000
	for _, name := range []string{"RRS", "SCS", "RCS"} {
		factory, err := sched.Factory(name, sched.Params{Timeslice: 30})
		if err != nil {
			t.Fatal(err)
		}
		for pcpus := 1; pcpus <= 4; pcpus++ {
			cfg := fig8Config(pcpus)
			s := factory()
			counter := &countCalls{Scheduler: s, skip: s.(core.TickSkipper)}
			e, err := New(cfg, counter, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.RunInterval(warmup, horizon)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunReplicationInterval(cfg, func() core.Scheduler { return stepEvery{factory()} }, warmup, horizon, 1)
			if err != nil {
				t.Fatal(err)
			}
			if diff, ok := sameBits(got, want); !ok {
				t.Errorf("%s, %d PCPUs: %s", name, pcpus, diff)
			}
			share := float64(counter.calls) / horizon
			t.Logf("%s, %d PCPUs: Schedule on %.1f %% of %d ticks", name, pcpus, 100*share, horizon)
			if share > 0.55 {
				t.Errorf("%s, %d PCPUs: Schedule on %.1f %% of ticks, want at most 55 %%", name, pcpus, 100*share)
			}
		}
	}
}
