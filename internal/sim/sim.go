// Package sim runs simulation experiments as sequences of independent
// replications with confidence-interval controlled stopping, replacing the
// Möbius simulation executive the paper relies on: results are aggregated
// per reward variable, and the experiment stops once every tracked
// metric's relative confidence-interval half-width drops below the target
// (the paper reports 95 % confidence with <0.1 intervals) or the
// replication budget is exhausted.
//
// One worker pool (RunCells) runs the replications of a whole grid of
// experiments in parallel. Results fold in replication order and the
// stopping rule is tested after every fold, so a summary never depends on
// the pool's width: it is the trajectory a serial run takes.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/stats"
)

// Replicator produces the reward-variable values of one replication.
// Implementations must be safe for concurrent invocation with distinct
// seeds (each call builds its own model), and should honor ctx so that a
// cancelled experiment interrupts a long replication instead of letting
// it run to its horizon.
type Replicator func(ctx context.Context, rep int, seed uint64) (map[string]float64, error)

// ReplicatorFactory constructs one Replicator per pool worker (RunPooled,
// RunCells). Each returned replicator is invoked serially by a single
// worker goroutine, so it may carry state across replications — typically
// a compiled model whose instance is reset per seed (core.Worker) —
// without any locking. Workers call the factory concurrently; it must
// produce independent replicators.
type ReplicatorFactory func() (Replicator, error)

// Options controls an experiment run. Zero values select the defaults
// documented per field.
type Options struct {
	// Level is the confidence level; default 0.95.
	Level float64
	// RelWidth is the target relative CI half-width; default 0.1 (the
	// paper's setting).
	RelWidth float64
	// MinReps is the minimum number of replications; default 10.
	MinReps int
	// MaxReps bounds the number of replications; default 100.
	MaxReps int
	// Parallelism is the number of pool workers running replications
	// concurrently; default GOMAXPROCS. It changes only the wall time:
	// the summary is the serial run's at any value.
	Parallelism int
	// Seed derives every replication's seed deterministically; the same
	// seed reproduces the experiment regardless of parallelism.
	Seed uint64
	// StopMetrics lists the metrics whose CIs gate stopping; empty means
	// every observed metric.
	StopMetrics []string
	// Sink, when non-nil, receives span events from the replication
	// controller: one sim.batch event per folded replication and one
	// sim.stop event per stopping-rule check (with the current relative
	// CI half-widths). Nil costs nothing — no event is constructed.
	Sink obs.Sink
}

// WithDefaults returns o with every zero field set to its documented
// default (Parallelism excepted).
func (o Options) WithDefaults() Options {
	if o.Level == 0 {
		o.Level = 0.95
	}
	if o.RelWidth == 0 {
		o.RelWidth = 0.1
	}
	if o.MinReps == 0 {
		o.MinReps = 10
	}
	if o.MaxReps == 0 {
		o.MaxReps = 100
	}
	return o
}

func (o Options) validate() error {
	if o.Level <= 0 || o.Level >= 1 {
		return fmt.Errorf("sim: confidence level %g out of (0,1)", o.Level)
	}
	if o.RelWidth <= 0 {
		return fmt.Errorf("sim: non-positive target CI width %g", o.RelWidth)
	}
	if o.MinReps < 2 {
		return fmt.Errorf("sim: need at least two replications, got min %d", o.MinReps)
	}
	if o.MaxReps < o.MinReps {
		return fmt.Errorf("sim: max replications %d below min %d", o.MaxReps, o.MinReps)
	}
	return nil
}

// Summary aggregates an experiment's replications.
type Summary struct {
	// Metrics holds the confidence interval of every reward variable.
	Metrics map[string]stats.Interval
	// Replications is the number of replications executed.
	Replications int
	// Converged reports whether the CI target was met (as opposed to
	// exhausting MaxReps).
	Converged bool
	// Level echoes the confidence level.
	Level float64
}

// Metric returns the interval for a metric name and whether it exists.
func (s Summary) Metric(name string) (stats.Interval, bool) {
	iv, ok := s.Metrics[name]
	return iv, ok
}

// Mean returns the mean of a metric, or 0 if absent.
func (s Summary) Mean(name string) float64 {
	return s.Metrics[name].Mean
}

// MetricNames returns the observed metric names sorted.
func (s Summary) MetricNames() []string {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes replications of rep until the stopping rule is satisfied.
// It is deterministic for a given Options.Seed: per-replication seeds are
// pre-derived and results fold in replication order, so parallel and
// serial execution produce identical aggregates. rep must be safe for
// concurrent invocation; replicators that carry per-worker state belong
// in RunPooled.
func Run(ctx context.Context, rep Replicator, opts Options) (Summary, error) {
	if rep == nil {
		return Summary{}, fmt.Errorf("sim: nil replicator")
	}
	return RunPooled(ctx, func() (Replicator, error) { return rep, nil }, opts)
}

// RunPooled is Run with per-worker replicator state: it is RunCells with
// one cell at width Options.Parallelism. Each pool worker calls factory
// at most once, lazily, and drives the replicator it gets serially, so a
// replicator can compile its model once and reset a pooled instance per
// replication, amortizing setup over the whole experiment.
func RunPooled(ctx context.Context, factory ReplicatorFactory, opts Options) (Summary, error) {
	sums, err := RunCells(ctx, opts.Parallelism, []Cell{{Factory: factory, Options: opts}})
	if err != nil {
		return Summary{}, err
	}
	return sums[0], nil
}

// Cell is one experiment of a grid run by RunCells.
type Cell struct {
	Name    string            // prefixes the cell's errors
	Factory ReplicatorFactory // called at most once per pool worker, lazily
	Options Options           // Parallelism is ignored
	// Finish, when non-nil, runs once with the cell's final summary; ctx
	// is cancelled if the grid fails. An error aborts the grid.
	Finish func(ctx context.Context, sum Summary) error
}

// RunCells runs every replication of every cell on width persistent
// workers (0 means GOMAXPROCS) and returns the summaries indexed like
// cells. A worker takes the earliest cell with fewer than width
// replications dispatched but not yet folded, so workers stay busy across
// cell boundaries. Each cell folds its results strictly in replication
// order and tests its stopping rule after every fold from MinReps on; the
// replications still running at the stop are discarded, results and
// errors alike. Every summary is therefore the serial (width 1)
// trajectory at any width. The first error or cancellation stops the grid
// and is returned once every worker has exited.
func RunCells(ctx context.Context, width int, cells []Cell) ([]Summary, error) {
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width < 1 {
		return nil, fmt.Errorf("sim: non-positive parallelism %d", width)
	}
	g := &grid{width: width, cells: make([]cellRun, len(cells))}
	g.cond.L = &g.mu
	for i := range g.cells {
		c := &g.cells[i]
		c.Cell, c.opts = cells[i], cells[i].Options.WithDefaults()
		if c.Factory == nil {
			return nil, fmt.Errorf("sim: nil replicator factory")
		}
		if err := c.opts.validate(); err != nil {
			return nil, err
		}
		c.seeds.Reseed(c.opts.Seed)
		c.reps, c.slots, c.acc = make([]Replicator, width), make([]slot, width), welfords{}
	}
	ctx, g.cancel = context.WithCancel(ctx)
	defer g.cancel()
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.work(ctx, w)
		}()
	}
	g.work(ctx, 0)
	wg.Wait()
	if g.err != nil {
		return nil, g.err
	}
	sums := make([]Summary, len(cells))
	for i := range g.cells {
		sums[i] = g.cells[i].sum
	}
	return sums, nil
}

// grid is RunCells' shared state, guarded by mu. No caller-supplied
// code (replicators, factories, hooks, sinks) runs under mu.
type grid struct {
	mu     sync.Mutex
	cond   sync.Cond // signalled when a cell's window or state changes, or the grid fails
	width  int
	cells  []cellRun
	lo     int // cells before lo are finished
	err    error
	cancel context.CancelFunc
}

// cellRun is one cell's progress through the pool. acc, converged and
// sum belong to the folding worker (see complete).
type cellRun struct {
	Cell
	opts      Options
	seeds     rng.Source   // draws replication i's seed at its dispatch
	reps      []Replicator // worker w's replicator for this cell
	slots     []slot       // outcomes awaiting their fold, replication i in slot i%width
	next      int          // next replication to dispatch
	folded    int          // replications folded
	done      bool
	acc       welfords
	converged bool
	sum       Summary
}

// slot holds one finished replication until its turn to fold.
type slot struct {
	res   map[string]float64
	err   error
	ready bool
}

// work is pool worker w: it runs replications until the grid finishes,
// fails or is cancelled. ctx is cancelled when the grid fails, so
// in-flight replications of other cells stop early.
func (g *grid) work(ctx context.Context, w int) {
	g.mu.Lock()
	for {
		c, i, seed := g.take(ctx)
		if c == nil {
			g.mu.Unlock()
			return
		}
		rep := c.reps[w]
		g.mu.Unlock()
		var (
			res map[string]float64
			err error
		)
		if rep == nil {
			if rep, err = c.Factory(); err == nil && rep == nil {
				err = fmt.Errorf("replicator factory returned nil")
			}
		}
		if err == nil {
			res, err = rep(ctx, i, seed)
		}
		if err != nil {
			err = fmt.Errorf("sim: replication %d: %w", i, err)
		}
		g.mu.Lock()
		if !c.done {
			c.reps[w] = rep
		}
		g.complete(ctx, c, i, res, err)
	}
}

// take dispatches the next replication, waiting while every open cell's
// window is full. It returns a nil cell once the grid is finished,
// failed or cancelled.
func (g *grid) take(ctx context.Context) (*cellRun, int, uint64) {
	for g.err == nil {
		if err := ctx.Err(); err != nil {
			g.fail(nil, fmt.Errorf("sim: cancelled: %w", err))
			break
		}
		for g.lo < len(g.cells) && g.cells[g.lo].done {
			g.lo++
		}
		for k := g.lo; k < len(g.cells); k++ {
			if c := &g.cells[k]; !c.done && c.next < c.opts.MaxReps && c.next-c.folded < g.width {
				c.next++
				return c, c.next - 1, c.seeds.Uint64()
			}
		}
		if g.lo == len(g.cells) {
			break
		}
		g.cond.Wait()
	}
	return nil, 0, 0
}

// complete records replication i's outcome. The worker that ran the
// next replication to fold then folds every outcome now in order —
// outside the lock, as folding emits spans; no other worker can hold that
// replication meanwhile — and runs Finish once the cell stops. Outcomes
// past the stop, or after the grid failed, are discarded. It is called,
// and returns, with g.mu held.
func (g *grid) complete(ctx context.Context, c *cellRun, i int, res map[string]float64, err error) {
	if c.done || g.err != nil {
		return
	}
	c.slots[i%g.width] = slot{res: res, err: err, ready: true}
	for i == c.folded && !c.done && g.err == nil {
		s := &c.slots[i%g.width]
		if !s.ready {
			return
		}
		if s.err != nil {
			g.fail(c, s.err)
			return
		}
		res := s.res
		*s = slot{}
		g.mu.Unlock()
		stop := c.fold(i+1, res)
		g.mu.Lock()
		c.folded, c.done = i+1, stop
		i++
		g.cond.Broadcast()
	}
	if !c.done || g.err != nil {
		return
	}
	clear(c.reps)
	if c.Finish == nil {
		return
	}
	g.mu.Unlock()
	err = c.Finish(ctx, c.sum)
	g.mu.Lock()
	if err != nil {
		g.fail(nil, err)
	}
}

// fold adds the cell's nth result, tests the stopping rule, and reports
// whether the cell is finished, leaving its summary in c.sum.
func (c *cellRun) fold(n int, r map[string]float64) bool {
	c.acc.add(r)
	sink := c.opts.Sink
	if sink != nil {
		sink.Emit(obs.Event{Kind: obs.KindBatch, Batch: n, Size: 1, Reps: n})
	}
	if n >= c.opts.MinReps {
		c.converged = convergedAll(c.acc, c.opts)
		if sink != nil {
			sink.Emit(obs.Event{
				Kind: obs.KindStop, Reps: n, Converged: c.converged,
				Widths: relWidths(c.acc, c.opts.Level),
			})
		}
	}
	if !c.converged && n < c.opts.MaxReps {
		return false
	}
	c.sum = c.acc.summary(n, c.converged, c.opts.Level)
	c.acc = nil
	return true
}

// fail records the grid's first error, prefixed with the name of the
// cell it came from (nil for none), and stops every worker.
func (g *grid) fail(c *cellRun, err error) {
	if g.err != nil {
		return
	}
	if c != nil && c.Name != "" {
		err = fmt.Errorf("%s: %w", c.Name, err)
	}
	g.err = err
	g.cancel()
	g.cond.Broadcast()
}

// welfords accumulates each metric's replications.
type welfords map[string]*stats.Welford

func (a welfords) add(r map[string]float64) {
	for name, v := range r {
		w := a[name]
		if w == nil {
			w = &stats.Welford{}
			a[name] = w
		}
		w.Add(v)
	}
}

func (a welfords) summary(n int, converged bool, level float64) Summary {
	out := Summary{
		Metrics:      make(map[string]stats.Interval, len(a)),
		Replications: n,
		Converged:    converged,
		Level:        level,
	}
	for name, w := range a {
		out.Metrics[name] = w.CI(level)
	}
	return out
}

// BatchMeans estimates steady-state metrics from one long run split into
// batches (the method of batch means): each element of batches is the
// metric map of one window (e.g. from fastsim's RunWindowed), treated as
// one observation. With windows long enough that autocorrelation between
// them is negligible, the Student-t intervals are valid; the caller is
// responsible for discarding the initial transient and choosing the batch
// length. At least two batches are required.
func BatchMeans(batches []map[string]float64, level float64) (Summary, error) {
	if len(batches) < 2 {
		return Summary{}, fmt.Errorf("sim: batch means needs at least two batches, got %d", len(batches))
	}
	if level <= 0 || level >= 1 {
		return Summary{}, fmt.Errorf("sim: confidence level %g out of (0,1)", level)
	}
	acc := welfords{}
	for _, b := range batches {
		acc.add(b)
	}
	return acc.summary(len(batches), true, level), nil
}

// relWidths snapshots every metric's relative CI half-width for a
// sim.stop span. Non-finite widths (zero means) are omitted: they cannot
// be represented in JSON and carry no stopping information.
func relWidths(acc map[string]*stats.Welford, level float64) map[string]float64 {
	out := make(map[string]float64, len(acc))
	for name, w := range acc {
		rw := w.CI(level).RelHalfWidth()
		if math.IsNaN(rw) || math.IsInf(rw, 0) {
			continue
		}
		out[name] = rw
	}
	return out
}

// convergedAll reports whether every tracked metric meets the CI target.
func convergedAll(acc map[string]*stats.Welford, opts Options) bool {
	check := func(w *stats.Welford) bool {
		return w.CI(opts.Level).RelHalfWidth() < opts.RelWidth
	}
	if len(opts.StopMetrics) > 0 {
		for _, name := range opts.StopMetrics {
			w, ok := acc[name]
			if !ok || !check(w) {
				return false
			}
		}
		return true
	}
	if len(acc) == 0 {
		return false
	}
	for _, w := range acc {
		if !check(w) {
			return false
		}
	}
	return true
}
