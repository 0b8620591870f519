package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vcpusim/internal/obs"
	"vcpusim/internal/sim"
)

// TestSANPooledEquivalenceAcrossParallelism runs the same SAN-engine experiment
// cell at replication parallelism 1 and 8 through the pooled executive
// and requires identical summaries: pooling plus parallelism must not
// perturb a single bit of the aggregates. (Run under -race in CI, this
// also shakes out sharing between pooled workers.)
func TestSANPooledEquivalenceAcrossParallelism(t *testing.T) {
	base := quickParams()
	base.Engine = EngineSAN
	base.Horizon = 500
	base.Sim = sim.Options{MinReps: 6, MaxReps: 6, RelWidth: 100}
	runAt := func(par int) sim.Summary {
		p := base
		p.Sim.Parallelism = par
		factory, err := p.schedFactory("RRS")
		if err != nil {
			t.Fatal(err)
		}
		sums, err := p.withDefaults().runCells(context.Background(), []cell{{name: "pooled equivalence", cfg: p.fig8Config(2), sched: factory}})
		if err != nil {
			t.Fatal(err)
		}
		return sums[0]
	}
	serial, parallel := runAt(1), runAt(8)
	if serial.Replications != parallel.Replications || serial.Converged != parallel.Converged {
		t.Fatalf("shape differs: serial (%d reps, %v) vs parallel (%d reps, %v)",
			serial.Replications, serial.Converged, parallel.Replications, parallel.Converged)
	}
	if len(serial.Metrics) != len(parallel.Metrics) {
		t.Fatalf("metric sets differ: %d vs %d", len(serial.Metrics), len(parallel.Metrics))
	}
	for name, a := range serial.Metrics {
		b, ok := parallel.Metrics[name]
		if !ok {
			t.Fatalf("parallel run missing metric %s", name)
		}
		// Exact equality: seeds are replication-indexed and results fold
		// in replication order regardless of parallelism.
		if a.Mean != b.Mean || a.HalfWidth != b.HalfWidth {
			t.Errorf("metric %s: serial %v, parallel %v", name, a, b)
		}
	}
}

// TestGridParallelismEquivalence renders Figure 9 at pool widths 1 and
// 4; the tables must be byte-identical.
func TestGridParallelismEquivalence(t *testing.T) {
	render := func(par int) string {
		p := quickParams()
		p.Sim.Parallelism = par
		tbl, err := Figure9(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Fatalf("figure 9 differs under grid parallelism:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestGridTelemetryCollector verifies every cell reports exactly one
// cell.end span with a usable payload, at any pool width.
func TestGridTelemetryCollector(t *testing.T) {
	for _, par := range []int{1, 3} {
		p := quickParams()
		p.Sim.Parallelism = par
		col := &obs.Collector{}
		p.Sink = col
		if _, err := Figure9(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		cells := col.Cells()
		wantCells := 3 * len(p.withDefaults().Algorithms) // 3 VM sets
		if len(cells) != wantCells {
			t.Fatalf("parallelism %d: %d cell.end spans, want %d", par, len(cells), wantCells)
		}
		seen := make(map[string]bool)
		for _, c := range cells {
			if seen[c.Cell] {
				t.Errorf("cell %q reported twice", c.Cell)
			}
			seen[c.Cell] = true
			if c.Replications < 2 || c.ElapsedNS <= 0 {
				t.Errorf("cell %q reported implausible span: %+v", c.Cell, c)
			}
			if c.Counters.Events == 0 || c.Counters.Firings == 0 {
				t.Errorf("cell %q rollup has zero engine counters: %+v", c.Cell, c.Counters)
			}
			if c.Counters.EventsPerSec <= 0 {
				t.Errorf("cell %q missing events/s: %+v", c.Cell, c.Counters)
			}
		}
	}
}

// TestGridCancellation verifies a cancelled context aborts the grid with
// the context error instead of hanging or returning a partial table.
func TestGridCancellation(t *testing.T) {
	p := quickParams()
	p.Sim.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Figure9(ctx, p); err == nil {
		t.Fatal("cancelled grid returned no error")
	}
}

// TestCIStoppedCellAcrossWidths runs Figure 8's RRS 1-PCPU cell, which
// stops on its CI target rather than at MaxReps, at the default protocol
// and several pool widths: every width must keep the serial run's
// replication count and bit-identical intervals.
func TestCIStoppedCellAcrossWidths(t *testing.T) {
	var serial sim.Summary
	for _, par := range []int{1, 2, 3, 8} {
		p := Defaults()
		p.Sim.Parallelism = par
		sums, err := p.runCells(context.Background(), []cell{{name: "figure 8 RRS 1PCPU", cfg: p.fig8Config(1), algo: "RRS"}})
		if err != nil {
			t.Fatal(err)
		}
		got := sums[0]
		if par == 1 {
			if !got.Converged || got.Replications == 100 {
				t.Fatalf("serial cell did not stop on its CI (%d reps)", got.Replications)
			}
			serial = got
			continue
		}
		if got.Replications != serial.Replications || len(got.Metrics) != len(serial.Metrics) {
			t.Fatalf("width %d: %d reps, %d metrics; serial %d reps, %d metrics",
				par, got.Replications, len(got.Metrics), serial.Replications, len(serial.Metrics))
		}
		for name, a := range serial.Metrics {
			if b := got.Metrics[name]; a.Mean != b.Mean || a.HalfWidth != b.HalfWidth {
				t.Errorf("width %d: metric %s %v, serial %v", par, name, b, a)
			}
		}
	}
}

// cancelAt is a telemetry sink that cancels a run at its nth folded
// replication (sim.batch event) once armed.
type cancelAt struct {
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (c *cancelAt) arm(n int, cancel context.CancelFunc) {
	c.mu.Lock()
	c.n, c.cancel = n, cancel
	c.mu.Unlock()
}

func (c *cancelAt) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Kind == obs.KindBatch && c.cancel != nil {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
}

// TestFigure8CancelMidGrid cancels a SAN Figure 8 grid part-way through
// at width 4: the call must return context.Canceled with every pool
// worker gone, and a rerun with the same Params must reproduce the
// uncancelled table byte for byte.
func TestFigure8CancelMidGrid(t *testing.T) {
	p := Defaults()
	p.Engine = EngineSAN
	p.Horizon = 400
	p.Sim = sim.Options{MinReps: 3, MaxReps: 8, Parallelism: 4}
	sink := &cancelAt{}
	p.Sink = sink
	render := func(ctx context.Context) (string, error) {
		tbl, err := Figure8(ctx, p)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		err = tbl.Render(&buf)
		return buf.String(), err
	}
	want, err := render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink.arm(10, cancel) // 12 cells of at least 3 replications each
	if _, err := render(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}
	sink.arm(0, nil)
	for wait := 0; runtime.NumGoroutine() > base; wait++ {
		if wait == 5000 {
			t.Fatalf("%d goroutines after the cancelled grid, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	got, err := render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rerun after cancellation differs:\nrerun:\n%s\nuncancelled:\n%s", got, want)
	}
}

// TestCellRollupsAcrossWidths checks the cell.end rollups fold exactly
// the replications each summary kept: on a SAN Figure 8 grid whose cells
// stop on their CI, the replication counts, engine counters and merged
// histograms are identical at widths 1 and 4, although width 4 runs
// replications past each stop and discards them.
func TestCellRollupsAcrossWidths(t *testing.T) {
	cells := func(par int) []obs.ManifestCell {
		p := Defaults()
		p.Engine = EngineSAN
		p.Horizon = 400
		p.Histograms = true
		p.Sim = sim.Options{MinReps: 3, MaxReps: 8, Parallelism: par}
		col := &obs.Collector{}
		p.Sink = col
		if _, err := Figure8(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		out := col.Cells()
		for i := range out {
			out[i].ElapsedNS, out[i].Counters.WallNS, out[i].Counters.EventsPerSec = 0, 0, 0
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
		return out
	}
	serial, wide := cells(1), cells(4)
	stopped := 0
	for _, c := range serial {
		if c.Converged && c.Replications < 8 {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("no cell stopped on its CI; the check needs speculative replications to discard")
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("cell rollups differ between widths 1 and 4:\n%+v\n%+v", serial, wide)
	}
}
