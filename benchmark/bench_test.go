package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"vcpusim/internal/experiments"
	"vcpusim/internal/report"
	"vcpusim/internal/sim"
)

var update = flag.Bool("update", false, "re-record expected/digests.json at seeds 1 and 2")

// tinySize runs every workload in well under a second per pass.
var tinySize = size{
	horizon: 1000,
	reps:    2,
	paper:   sim.Options{Level: 0.95, RelWidth: 0.1, MinReps: 2, MaxReps: 2},
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON: the file the benchmark is run from lists exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the run is correct and reports every metric of BENCHMARK.json
// with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runOne(context.Background(), options{
				workload: name, seed: 3, seconds: 0.001, trace: traced,
				outDir: dir, size: tinySize, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct %t, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(filepath.Join(dir, "spans-"+name+"-seed3.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", name, traced, n)
				case got.Unit != unit:
					t.Errorf("%s: metric %s unit %q, want %q", name, n, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, n, got.Value)
				}
			}
		}
	}
}

// TestTracedMatchesUntraced: a traced pass — spans, the scheduler
// wrapper, fire hooks, the step loop — returns bit-identical summaries.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		w, err := newWorkload(name, tinySize)
		if err != nil {
			t.Fatal(err)
		}
		plain := w.pass(ctx, 5, nil)
		tr := &tracer{}
		traced := w.pass(ctx, 5, tr)
		if len(tr.allSpans()) == 0 {
			t.Errorf("%s: traced pass recorded no spans", name)
		}
		for i, cr := range plain.cells {
			if cr.err != nil || traced.cells[i].err != nil {
				t.Fatalf("%s %s: %v / %v", name, cr.name, cr.err, traced.cells[i].err)
			}
			if a, b := digest(cr.sum), digest(traced.cells[i].sum); a != b {
				t.Errorf("%s %s: untraced digest %s, traced %s", name, cr.name, a, b)
			}
		}
		if plain.counters != traced.counters {
			t.Errorf("%s: counters differ: %+v vs %+v", name, plain.counters, traced.counters)
		}
	}
}

// TestGridsMatchExperiments: the benchmark's paper and faults grids run
// the same cells as experiments.Figure8/9/10 and FigureFaults and produce
// the same table values, bit for bit.
func TestGridsMatchExperiments(t *testing.T) {
	ctx := context.Background()
	const seed = 7
	opts := sim.Options{MinReps: 3, MaxReps: 3}
	sz := size{horizon: 400, reps: 3, paper: sim.Options{Level: 0.95, RelWidth: 0.1, MinReps: 3, MaxReps: 3}}
	for _, engine := range []experiments.Engine{experiments.EngineFast, experiments.EngineSAN} {
		p := experiments.Params{Engine: engine, Horizon: 400, Seed: seed, Sim: opts}
		want := map[string]*report.Table{}
		var err error
		if want["8"], err = experiments.Figure8(ctx, p); err != nil {
			t.Fatal(err)
		}
		if want["9"], err = experiments.Figure9(ctx, p); err != nil {
			t.Fatal(err)
		}
		if want["10_1"], want["10_2"], err = experiments.Figure10(ctx, p); err != nil {
			t.Fatal(err)
		}
		if engine == experiments.EngineSAN {
			if want["faults"], err = experiments.FigureFaults(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		grids := []*grid{paperGrid(engine, sz)}
		if engine == experiments.EngineSAN {
			grids = append(grids, faultsGrid(sz))
		}
		for _, g := range grids {
			got := g.tables(g.pass(ctx, seed, nil))
			for id, tbl := range got {
				w := want[id]
				if len(tbl.RowLabels) != len(w.RowLabels) || len(tbl.ColLabels) != len(w.ColLabels) {
					t.Errorf("%s table %s: %dx%d, experiments %dx%d", engine, id,
						len(tbl.RowLabels), len(tbl.ColLabels), len(w.RowLabels), len(w.ColLabels))
				}
				for _, r := range w.RowLabels {
					for _, c := range w.ColLabels {
						a, okA := tbl.Get(r, c)
						b, okB := w.Get(r, c)
						if okA != okB || a != b {
							t.Errorf("%s table %s [%s, %s]: benchmark %x ± %x (n=%d), experiments %x ± %x (n=%d)",
								engine, id, r, c, a.Mean, a.HalfWidth, a.N, b.Mean, b.HalfWidth, b.N)
						}
					}
				}
			}
		}
	}
}

// TestPaperReference runs the paper grids at the paper's full protocol
// (horizon 20000, seed 1): the fast engine reproduces the recorded figure
// CSVs byte for byte, the SAN engine within 1e-6.
func TestPaperReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon paper grids")
	}
	ctx := context.Background()
	full := benchSize
	full.horizon = 20000
	files := map[string]string{"8": "figure_8.csv", "9": "figure_9.csv", "10_1": "figure_10_1.csv", "10_2": "figure_10_2.csv"}
	for _, engine := range []experiments.Engine{experiments.EngineFast, experiments.EngineSAN} {
		g := paperGrid(engine, full)
		tables := g.tables(g.pass(ctx, 1, nil))
		for id, file := range files {
			want, err := os.ReadFile(filepath.Join("..", "results", file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tables[id].WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if engine == experiments.EngineFast {
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("fast engine: %s differs from results/%s:\n%s", id, file, got.String())
				}
				continue
			}
			if maxErr := csvMaxAbsErr(t, got.Bytes(), want); maxErr > 1e-6 {
				t.Errorf("SAN engine: %s differs from results/%s by %g", id, file, maxErr)
			}
		}
	}
}

// csvMaxAbsErr compares two figure CSVs with the same labels, levels and
// counts, returning the largest difference of a mean or half-width.
func csvMaxAbsErr(t *testing.T, a, b []byte) float64 {
	t.Helper()
	ra, err := csv.NewReader(bytes.NewReader(a)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%d rows vs %d", len(ra), len(rb))
	}
	maxErr := 0.0
	for i := range ra {
		if ra[i][0] != rb[i][0] || ra[i][1] != rb[i][1] || ra[i][4] != rb[i][4] || ra[i][5] != rb[i][5] {
			t.Fatalf("row %d: %v vs %v", i, ra[i], rb[i])
		}
		if i == 0 {
			continue
		}
		for _, col := range []int{2, 3} {
			x, _ := strconv.ParseFloat(ra[i][col], 64)
			y, _ := strconv.ParseFloat(rb[i][col], 64)
			maxErr = math.Max(maxErr, math.Abs(x-y))
		}
	}
	return maxErr
}

// TestExpectedDigests checks the recorded per-cell digests at seeds 1 and
// 2; with -update it re-records them.
func TestExpectedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("two passes of every workload")
	}
	ctx := context.Background()
	book := digestBook{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, benchSize)
		if err != nil {
			t.Fatal(err)
		}
		book[name] = map[string]map[string]string{}
		for _, seed := range []uint64{1, 2} {
			cells := map[string]string{}
			for _, cr := range w.pass(ctx, seed, nil).cells {
				if cr.err != nil {
					t.Fatalf("%s seed %d %s: %v", name, seed, cr.name, cr.err)
				}
				cells[cr.name] = digest(cr.sum)
			}
			book[name][strconv.FormatUint(seed, 10)] = cells
		}
	}
	if *update {
		raw, err := json.MarshalIndent(book, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("expected", "digests.json"), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, seeds := range book {
		for seed, cells := range seeds {
			if len(want[name][seed]) != len(cells) {
				t.Errorf("%s seed %s: %d recorded cells, got %d", name, seed, len(want[name][seed]), len(cells))
			}
			for cell, d := range cells {
				if want[name][seed][cell] != d {
					t.Errorf("%s seed %s %s: digest %s, recorded %s", name, seed, cell, d, want[name][seed][cell])
				}
			}
		}
	}
}

// TestCheckerCountsMismatches: a cell whose digest differs from the
// recorded one, or from the run's first pass, fails all its replications.
func TestCheckerCountsMismatches(t *testing.T) {
	w, err := newWorkload("tandem-64", tinySize)
	if err != nil {
		t.Fatal(err)
	}
	pr := w.pass(context.Background(), 1, nil)
	good := digest(pr.cells[0].sum)

	c := &checker{want: map[string]string{"tandem-64": "0000000000000000"}, first: map[string]string{}, reject: map[string]string{}}
	c.tally([]passResult{pr})
	if c.failed != pr.attempted() {
		t.Errorf("recorded-digest mismatch: %d failed, want %d", c.failed, pr.attempted())
	}

	other := w.pass(context.Background(), 2, nil)
	c = &checker{want: nil, first: map[string]string{}, reject: map[string]string{}}
	c.tally([]passResult{pr, other})
	if c.failed != other.attempted() {
		t.Errorf("first-pass mismatch: %d failed, want %d", c.failed, other.attempted())
	}

	c = &checker{want: map[string]string{"tandem-64": good}, first: map[string]string{}, reject: map[string]string{}}
	c.tally([]passResult{pr, pr})
	if c.failed != 0 {
		t.Errorf("matching passes: %d failed", c.failed)
	}
}

// TestCovered: self time subtracts the union of overlapping children.
func TestCovered(t *testing.T) {
	sp := func(a, b time.Duration) span { return span{Start: a, End: b} }
	parent := sp(0, 100)
	for _, c := range []struct {
		children []span
		want     time.Duration
	}{
		{nil, 0},
		{[]span{sp(10, 20)}, 10},
		{[]span{sp(10, 40), sp(20, 30), sp(35, 50)}, 40},
		{[]span{sp(60, 70), sp(10, 20)}, 20},
		{[]span{sp(0, 100), sp(0, 100)}, 100},
	} {
		if got := covered(parent, c.children); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.children, got, c.want)
		}
	}
}

// tables lays a grid pass out as the experiments package's tables.
func (g *grid) tables(res passResult) map[string]*report.Table {
	headers := map[string]string{"8": "setup", "9": "VM set", "10_1": "setup", "10_2": "setup", "faults": "scenario"}
	rows, cols := map[string][]string{}, map[string][]string{}
	for _, c := range g.cells {
		for _, e := range c.entries {
			if !slices.Contains(rows[e.table], e.row) {
				rows[e.table] = append(rows[e.table], e.row)
			}
			if !slices.Contains(cols[e.table], e.col) {
				cols[e.table] = append(cols[e.table], e.col)
			}
		}
	}
	out := map[string]*report.Table{}
	for id := range rows {
		out[id] = report.NewTable("", headers[id], rows[id], cols[id])
	}
	for i, c := range g.cells {
		for _, e := range c.entries {
			if iv, ok := res.cells[i].sum.Metric(e.metric); ok {
				out[e.table].Set(e.row, e.col, iv)
			}
		}
	}
	return out
}
