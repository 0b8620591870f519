package experiments

import (
	"bytes"
	"context"
	"testing"

	"vcpusim/internal/cluster"
	"vcpusim/internal/obs"
)

// TestFigureClusterShape regenerates the cluster campaign at a reduced
// budget and checks structural invariants: every (fleet size, policy)
// cell fills all of its rows, dispatch counts scale with the fleet, and
// migrations occur under every policy (the topology is built so the
// resident wide VMs always find an underloaded target at least once).
func TestFigureClusterShape(t *testing.T) {
	tbl, err := FigureCluster(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	get := func(row, col string) float64 {
		t.Helper()
		iv, ok := tbl.Get(row, col)
		if !ok {
			t.Fatalf("table cell (%q, %q) missing", row, col)
		}
		return iv.Mean
	}
	for _, pol := range cluster.PlacementPolicies() {
		if d := get("2 hosts: dispatches", pol); d <= 0 {
			t.Errorf("%s: no dispatches in 2-host fleet", pol)
		}
		if d2, d8 := get("2 hosts: dispatches", pol), get("8 hosts: dispatches", pol); d8 <= d2 {
			t.Errorf("%s: dispatches do not scale with the fleet (2 hosts %g, 8 hosts %g)", pol, d2, d8)
		}
		if m := get("4 hosts: migrations", pol); m <= 0 {
			t.Errorf("%s: no migrations in 4-host fleet", pol)
		}
		if a := get("4 hosts: fleet availability", pol); !(0 < a && a <= 1) {
			t.Errorf("%s: fleet availability %g outside (0, 1]", pol, a)
		}
	}
}

// TestFigureClusterGridParallelism renders the cluster figure at pool
// widths 1, 2 and 8; the tables must be byte-identical.
func TestFigureClusterGridParallelism(t *testing.T) {
	render := func(par int) string {
		p := quickParams()
		p.Sim.Parallelism = par
		tbl, err := FigureCluster(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != serial {
			t.Fatalf("cluster figure differs at grid parallelism %d:\nserial:\n%s\nparallel:\n%s", par, serial, got)
		}
	}
}

// TestFigureClusterTelemetry checks the cell.end rollups carry the
// cluster counters: every cell reports dispatches, and the engine
// counters aggregate across all hosts of the fleet.
func TestFigureClusterTelemetry(t *testing.T) {
	p := quickParams()
	col := &obs.Collector{}
	p.Sink = col
	if _, err := FigureCluster(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	cells := col.Cells()
	wantCells := len(clusterHostCounts) * len(cluster.PlacementPolicies())
	if len(cells) != wantCells {
		t.Fatalf("%d cell.end spans, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		if c.Counters.Events == 0 {
			t.Errorf("cell %q rollup has zero engine events: %+v", c.Cell, c.Counters)
		}
		if c.Counters.Dispatches == 0 {
			t.Errorf("cell %q rollup has zero dispatches: %+v", c.Cell, c.Counters)
		}
	}
}
