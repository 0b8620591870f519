package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// TestRunPooledMatchesRunStateless verifies the pooled executor with
// stateful per-worker replicators produces exactly the summary the
// stateless path does: same seeds, same fold order, same intervals.
func TestRunPooledMatchesRunStateless(t *testing.T) {
	opts := Options{Seed: 9, MinReps: 11, MaxReps: 23, RelWidth: 1e-9, Parallelism: 4}
	want, err := Run(context.Background(), noisyReplicator(5, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	var factoryCalls atomic.Int64
	factory := func() (Replicator, error) {
		factoryCalls.Add(1)
		reps := 0 // per-worker state: must not affect results
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			reps++
			return noisyReplicator(5, 2)(ctx, rep, seed)
		}, nil
	}
	got, err := RunPooled(context.Background(), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replications != want.Replications || got.Converged != want.Converged {
		t.Fatalf("pooled (%d reps, converged=%v) vs stateless (%d reps, converged=%v)",
			got.Replications, got.Converged, want.Replications, want.Converged)
	}
	a, b := got.Metrics["m"], want.Metrics["m"]
	if a.Mean != b.Mean || a.HalfWidth != b.HalfWidth {
		t.Fatalf("pooled interval %v differs from stateless %v", a, b)
	}
	if n := factoryCalls.Load(); n < 1 || n > int64(opts.Parallelism) {
		t.Errorf("factory called %d times, want 1..%d (lazy per-slot)", n, opts.Parallelism)
	}
}

// TestRunPooledWorkerSerial verifies the pooling contract replicators
// rely on: one worker slot never runs two replications concurrently.
func TestRunPooledWorkerSerial(t *testing.T) {
	opts := Options{Seed: 3, MinReps: 8, MaxReps: 32, RelWidth: 1e-9, Parallelism: 8}
	factory := func() (Replicator, error) {
		var busy atomic.Bool
		return func(ctx context.Context, rep int, seed uint64) (map[string]float64, error) {
			if !busy.CompareAndSwap(false, true) {
				return nil, fmt.Errorf("worker entered concurrently at rep %d", rep)
			}
			defer busy.Store(false)
			return noisyReplicator(1, 10)(ctx, rep, seed)
		}, nil
	}
	if _, err := RunPooled(context.Background(), factory, opts); err != nil {
		t.Fatal(err)
	}
}

// TestRunPooledFactoryError verifies a failing factory aborts the run.
func TestRunPooledFactoryError(t *testing.T) {
	factory := func() (Replicator, error) { return nil, fmt.Errorf("no worker for you") }
	_, err := RunPooled(context.Background(), factory, Options{Seed: 1})
	if err == nil {
		t.Fatal("factory error did not abort the experiment")
	}
}

// TestRunPooledNilFactory and nil-replicator factories are rejected.
func TestRunPooledNilFactory(t *testing.T) {
	if _, err := RunPooled(context.Background(), nil, Options{Seed: 1}); err == nil {
		t.Fatal("nil factory accepted")
	}
	factory := func() (Replicator, error) { return nil, nil }
	if _, err := RunPooled(context.Background(), factory, Options{Seed: 1}); err == nil {
		t.Fatal("nil replicator accepted")
	}
}

// TestRunPooledSeedIsReplicationIndexed re-checks determinism end to end:
// metric value depends only on the replication seed, so any legal
// work-distribution across slots yields the identical mean.
func TestRunPooledSeedIsReplicationIndexed(t *testing.T) {
	runAt := func(par int) Summary {
		factory := func() (Replicator, error) {
			return func(_ context.Context, _ int, seed uint64) (map[string]float64, error) {
				return map[string]float64{"s": float64(seed % 1024)}, nil
			}, nil
		}
		sum, err := RunPooled(context.Background(), factory, Options{
			Seed: 77, MinReps: 16, MaxReps: 16, RelWidth: 1e-12, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	serial, parallel := runAt(1), runAt(8)
	if a, b := serial.Metrics["s"], parallel.Metrics["s"]; a.Mean != b.Mean ||
		math.Abs(a.HalfWidth-b.HalfWidth) > 0 {
		t.Fatalf("parallel pooled summary differs: %v vs %v", a, b)
	}
}

// TestCIStoppingIndependentOfParallelism pins the serial trajectory: a
// stochastic metric whose CI target stops the run before MaxReps stops
// after the same replication, with bit-identical intervals, at every pool
// width. Past the serial stop every replication fails: the pool may start
// fewer than width of them, and must discard their errors.
func TestCIStoppingIndependentOfParallelism(t *testing.T) {
	opts := Options{Seed: 4, MinReps: 2, RelWidth: 0.1, Parallelism: 1}
	serial, err := Run(context.Background(), noisyReplicator(5, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged || serial.Replications == 100 {
		t.Fatalf("serial run did not stop on its CI (%d reps)", serial.Replications)
	}
	for _, par := range []int{2, 3, 8} {
		var calls atomic.Int64
		rep := func(ctx context.Context, i int, seed uint64) (map[string]float64, error) {
			calls.Add(1)
			if i >= serial.Replications {
				return nil, fmt.Errorf("replication %d runs past the serial stop", i)
			}
			return noisyReplicator(5, 2)(ctx, i, seed)
		}
		opts.Parallelism = par
		got, err := Run(context.Background(), rep, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if n := calls.Load(); n > int64(got.Replications+par-1) {
			t.Errorf("parallelism %d: %d replications run for %d kept", par, n, got.Replications)
		}
		a, b := got.Metrics["m"], serial.Metrics["m"]
		if got.Replications != serial.Replications || got.Converged != serial.Converged ||
			a.Mean != b.Mean || a.HalfWidth != b.HalfWidth {
			t.Errorf("parallelism %d: %d reps %v, serial %d reps %v", par, got.Replications, a, serial.Replications, b)
		}
	}
}

// TestRunPooledAllocsFlatInReplications pins the pool's cost: with a
// replicator that allocates nothing, a call allocates the same at 10
// replications as at 60 — no per-replication goroutine, slice or seed.
func TestRunPooledAllocsFlatInReplications(t *testing.T) {
	m := map[string]float64{"m": 1}
	factory := func() (Replicator, error) {
		return func(context.Context, int, uint64) (map[string]float64, error) { return m, nil }, nil
	}
	allocs := func(reps int) float64 {
		opts := Options{Seed: 1, MinReps: reps, MaxReps: reps, Parallelism: 1}
		return testing.AllocsPerRun(20, func() {
			if _, err := RunPooled(context.Background(), factory, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a60 := allocs(10), allocs(60); a60 != a10 {
		t.Fatalf("allocs per call: %g at 10 replications, %g at 60", a10, a60)
	}
}
