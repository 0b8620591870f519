package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"vcpusim/internal/cluster"
	"vcpusim/internal/experiments"
	"vcpusim/internal/sim"
)

// expectedJSON holds the recorded per-cell digests: workload -> seed ->
// cell -> digest. TestExpectedDigests re-records it with -update.
//
//go:embed expected/digests.json
var expectedJSON []byte

type digestBook map[string]map[string]map[string]string

func loadExpected() (digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(expectedJSON, &b); err != nil {
		return nil, fmt.Errorf("expected/digests.json: %w", err)
	}
	return b, nil
}

// digest fingerprints one cell's summary: every metric's mean, half-width
// and count as hex floats, so any change in any bit shows.
func digest(sum sim.Summary) string {
	h := sha256.New()
	fmt.Fprintf(h, "reps %d converged %t level %x\n", sum.Replications, sum.Converged, sum.Level)
	for _, name := range sum.MetricNames() {
		iv := sum.Metrics[name]
		fmt.Fprintf(h, "%s %x %x %d\n", name, iv.Mean, iv.HalfWidth, iv.N)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checker decides which cells of a run are wrong. A cell is wrong in a
// pass when it failed, when its digest differs from the run's first pass
// (every pass, traced or not, must reproduce it bit for bit), when the
// seed has recorded digests and it differs from them, or when a
// workload-level check rejected its output.
type checker struct {
	want   map[string]string
	first  map[string]string
	reject map[string]string // cell -> reason, from workload checks
	failed int
	notes  []string
}

func newChecker(workloadName string, seed uint64) (*checker, error) {
	book, err := loadExpected()
	if err != nil {
		return nil, err
	}
	return &checker{
		want:   book[workloadName][strconv.FormatUint(seed, 10)],
		first:  map[string]string{},
		reject: map[string]string{},
	}, nil
}

// rejectCell marks a cell wrong in every pass.
func (c *checker) rejectCell(cell, reason string) {
	if _, ok := c.reject[cell]; !ok {
		c.reject[cell] = reason
	}
}

// tally judges every cell of every pass, the first pass being the
// reference the others must reproduce, and counts the replications of
// wrong cells as failed.
func (c *checker) tally(passes []passResult) {
	for i, p := range passes {
		for _, cr := range p.cells {
			reason := c.judge(cr, i == 0)
			if reason == "" && cr.err == nil {
				reason = c.reject[cr.name]
			}
			if reason != "" {
				c.failed += cr.attempted
				c.note(cr.name + ": " + reason)
			}
		}
	}
}

func (c *checker) judge(cr cellResult, reference bool) string {
	if cr.err != nil {
		return cr.err.Error()
	}
	d := digest(cr.sum)
	if reference {
		c.first[cr.name] = d
	} else if c.first[cr.name] != d {
		return fmt.Sprintf("digest %s differs from the first pass's %s", d, c.first[cr.name])
	}
	if want, ok := c.want[cr.name]; c.want != nil && (!ok || want != d) {
		return fmt.Sprintf("digest %s differs from the recorded %s", d, want)
	}
	return ""
}

func (c *checker) note(s string) {
	if !slices.Contains(c.notes, s) {
		c.notes = append(c.notes, s)
	}
}

// checkSummary applies the checks every workload shares: finite values,
// and fractions inside [0, 1].
func checkSummary(cr cellResult) error {
	if cr.sum.Replications < 2 {
		return fmt.Errorf("only %d replications", cr.sum.Replications)
	}
	for _, name := range cr.sum.MetricNames() {
		iv := cr.sum.Metrics[name]
		if math.IsNaN(iv.Mean) || math.IsInf(iv.Mean, 0) || math.IsNaN(iv.HalfWidth) || math.IsInf(iv.HalfWidth, 0) {
			return fmt.Errorf("metric %s is not finite (%g ± %g)", name, iv.Mean, iv.HalfWidth)
		}
		if fraction(name) && (iv.Mean < 0 || iv.Mean > 1+1e-9) {
			return fmt.Errorf("fraction %s = %g outside [0, 1]", name, iv.Mean)
		}
	}
	return nil
}

func fraction(metric string) bool {
	for _, p := range []string{"avail/", "vutil/", "putil/", "fleet/", experiments.EfficiencyMetric} {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func (g *grid) check(cr cellResult) error { return checkSummary(cr) }

// check holds the tandem to its model: arrivals come at rate 0.8 (a
// Poisson count, well inside 10 % over any horizon the benchmark runs),
// and no customer leaves before it arrived.
func (t *tandem) check(cr cellResult) error {
	if err := checkSummary(cr); err != nil {
		return err
	}
	arrivals, departures := cr.sum.Mean(tandemArrivals), cr.sum.Mean(tandemDepartures)
	if rate := arrivals / t.horizon; math.Abs(rate-tandemRate) > 0.1*tandemRate {
		return fmt.Errorf("arrival rate %g, want %g", rate, tandemRate)
	}
	if departures > arrivals {
		return fmt.Errorf("%g departures exceed %g arrivals", departures, arrivals)
	}
	if l0 := cr.sum.Mean("L0"); l0 < 0 {
		return fmt.Errorf("negative station 0 population %g", l0)
	}
	return nil
}

// check holds the fleet to conservation: every arrival is either
// dispatched or still queued at the horizon.
func (f *fleet) check(cr cellResult) error {
	if err := checkSummary(cr); err != nil {
		return err
	}
	got := cr.sum.Mean(cluster.DispatchesMetric) + cr.sum.Mean(cluster.QueuedAtEndMetric)
	if math.Abs(got-float64(f.arrivals())) > 1e-6 {
		return fmt.Errorf("dispatched + queued = %g, want %d arrivals", got, f.arrivals())
	}
	return nil
}

// crossCheck runs the paper grid on the other engine with the same seed
// and compares every cell: the engines share the model's tick semantics,
// so replication counts must match and means agree within 1e-6. It
// returns the largest absolute difference and rejects disagreeing cells.
func (g *grid) crossCheck(ctx context.Context, seed uint64, ref passResult, c *checker) float64 {
	other := *g
	other.engine = experiments.EngineFast
	if g.engine == experiments.EngineFast {
		other.engine = experiments.EngineSAN
	}
	alt := other.pass(ctx, seed, nil)
	maxErr := 0.0
	for i, cr := range ref.cells {
		ac := alt.cells[i]
		if cr.err != nil {
			continue
		}
		if ac.err != nil {
			c.rejectCell(cr.name, fmt.Sprintf("%s engine failed: %v", other.engine, ac.err))
			continue
		}
		if cr.sum.Replications != ac.sum.Replications {
			c.rejectCell(cr.name, fmt.Sprintf("%d replications, %s engine ran %d", cr.sum.Replications, other.engine, ac.sum.Replications))
			continue
		}
		for _, name := range cr.sum.MetricNames() {
			ai, ok := ac.sum.Metrics[name]
			if !ok {
				c.rejectCell(cr.name, fmt.Sprintf("metric %s missing on the %s engine", name, other.engine))
				break
			}
			d := math.Abs(cr.sum.Metrics[name].Mean - ai.Mean)
			maxErr = math.Max(maxErr, d)
			if d > 1e-6 {
				c.rejectCell(cr.name, fmt.Sprintf("metric %s differs from the %s engine by %g", name, other.engine, d))
				break
			}
		}
	}
	return maxErr
}
