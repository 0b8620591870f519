package experiments

import (
	"context"
	"math"
	"testing"

	"vcpusim/internal/sim"
)

// TestFigureFaultsQuick runs the fault campaign once at the -quick
// parameters and checks, for every scheduler, the rows that are plain
// arithmetic (EXPERIMENTS.md, "Faults"): one of two PCPUs down for 20 %
// of the run, PCPU 0 at half speed for half of it, a restarted PCPU
// re-seated within its restart tick, and a misdecision window of 5 % in
// which only the fault-time availability counts.
func TestFigureFaultsQuick(t *testing.T) {
	p := Defaults()
	p.Horizon = 4000
	p.Sim = sim.Options{MinReps: 3, MaxReps: 3, RelWidth: 10, Parallelism: 2}
	tbl, err := FigureFaults(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range p.Algorithms {
		get := func(row string) float64 {
			t.Helper()
			iv, ok := tbl.Get(row, algo)
			if !ok {
				t.Fatalf("%s: no row %q", algo, row)
			}
			return iv.Mean
		}
		near := func(row string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: %s = %.17g, want %g", algo, row, got, want)
			}
		}
		for _, c := range []struct {
			row  string
			want float64
		}{
			{"crash: availability", 0.45},          // 0.8·0.5 + 0.2·0.25
			{"crash: avail under fault", 0.25},     // four VCPUs on one PCPU
			{"throttle: availability", 0.5},        // throttling slows work, not seating
			{"throttle: capacity", 0.875},          // 1 − 0.5·0.25
			{"crash: recovery (MTTR ticks)", 0},    // re-seated within the restart tick
			{"throttle: recovery (MTTR ticks)", 0}, // no PCPU restarts
			{"stall-storm: recovery (MTTR ticks)", 0},
			{"misdecision: recovery (MTTR ticks)", 0},
		} {
			near(c.row, get(c.row), c.want)
		}
		under := get("misdecision: avail under fault")
		near("misdecision: availability", get("misdecision: availability"), 0.95*0.5+0.05*under)
	}
}
