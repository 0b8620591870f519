#!/bin/sh
# bench.sh — run the engine microbenchmarks with allocation reporting, in a
# benchstat-comparable format.
#
# Usage:
#   ./bench.sh                # full run: -count=5, results to results/bench/
#   ./bench.sh smoke          # one fast iteration of every benchmark (CI)
#   ./bench.sh -setup [out]   # replication-setup cost only: the fresh
#                             # build+compile path vs the pooled reseed+reset
#                             # path (the compile-once executive's A/B)
#   ./bench.sh json <label> [out.json]
#                             # headline engine benchmarks (fig8, tandem-64,
#                             # cluster at 10/100/1000 hosts, both with a
#                             # shrinking and with a fixed horizon, plus
#                             # the fixed horizon at 10,000 hosts; the
#                             # cluster rows run again at GOMAXPROCS=1,
#                             # named .../procs=1), the layer rows (rng
#                             # samplers, des kernel, scheduler policies,
#                             # fresh and pooled replication setup, t
#                             # quantile) and
#                             # the end-to-end rows (Figures 8-10, Figure 8
#                             # on the SAN engine, one fast-engine
#                             # replication, and one RunCells pool at
#                             # GOMAXPROCS 2 and 1), parsed into JSON under
#                             # the given label via
#                             # cmd/benchjson; default out
#                             # results/bench/BENCH_<label>.json (errors if
#                             # that file already exists — never silently
#                             # overwrites a recorded baseline). Fixed
#                             # iteration count (-benchtime 50x) and
#                             # -count=10 with median aggregation: see
#                             # EXPERIMENTS.md for the protocol.
#   ./bench.sh compare <old.json> <new.json> [tolerance]
#                             # regression gate: benchjson -compare with a
#                             # relative tolerance band (default 0.15)
#   ./bench.sh [out.txt]      # full run, tee to the given file
#
# Compare two recorded runs with `benchstat old.txt new.txt` (not vendored;
# any benchstat-compatible tool works on the raw `go test -bench` output).
# results/bench/baseline_pr2.txt holds the pre-incidence-index engine's
# numbers for exactly that comparison.
set -eu
cd "$(dirname "$0")"

PKGS="./internal/san ./internal/core ./internal/des ./internal/cluster"
BENCH="BenchmarkRunner|BenchmarkScheduleAndStep|BenchmarkHeapChurn|BenchmarkCancel|BenchmarkClusterReplicate|BenchmarkClusterFixedHorizon"
# The root package's rows: each figure iteration regenerates a figure's grid
# at a reduced replication budget, and each EngineFast iteration is one
# 10,000-tick fast-engine replication, its tick loop without a grid around it.
ROOT='BenchmarkFigure8$|BenchmarkFigure8SAN$|BenchmarkFigure9$|BenchmarkFigure10$|BenchmarkEngineFast$'

case "${1:-}" in
smoke)
    # One abbreviated pass so CI catches benchmarks that fail to build or
    # error out, without paying for stable numbers.
    exec go test -run '^$' -bench "$BENCH|BenchmarkChurnHeapKernel|BenchmarkChurnInHandler|BenchmarkReplicationSetup|BenchmarkTQuantile|Schedule\$|BenchmarkExponentialSample|$ROOT|BenchmarkRunCells\$" \
        -benchtime 1x -benchmem $PKGS ./internal/stats ./internal/sched ./internal/rng .
    ;;
json)
    label="${2:?usage: ./bench.sh json <label> [out.json]}"
    if [ $# -ge 3 ]; then
        out="$3"
    else
        out="results/bench/BENCH_${label}.json"
        if [ -e "$out" ]; then
            echo "bench.sh: $out already exists; pick a new label, pass an explicit output path, or remove the stale record" >&2
            exit 1
        fi
    fi
    mkdir -p "$(dirname "$out")"
    # Fixed iteration count (not -benchtime 1s): time-based budgets let the
    # iteration count float with machine load, which moves the measured
    # work itself between runs. 50 iterations x count=10 with median
    # aggregation in benchjson is the recording protocol (EXPERIMENTS.md).
    # One 10,000-host replication takes seconds, so that row runs 5
    # iterations per repetition instead of 50; still median of 10.
    {
        go test -run '^$' -bench 'BenchmarkRunnerFig8$|BenchmarkRunnerTandem/stations=64|BenchmarkClusterReplicate/hosts=10$|BenchmarkClusterReplicate/hosts=100$|BenchmarkClusterReplicate/hosts=1000$|BenchmarkClusterFixedHorizon/hosts=10$|BenchmarkClusterFixedHorizon/hosts=100$|BenchmarkClusterFixedHorizon/hosts=1000$' \
            -benchtime 50x -count=10 -benchmem ./internal/core ./internal/san ./internal/cluster
        go test -run '^$' -bench 'BenchmarkClusterFixedHorizon/hosts=10000$' \
            -benchtime 5x -count=10 -benchmem ./internal/cluster
        # The cluster steps big windows on every CPU; its rows again at
        # GOMAXPROCS=1 put the serial loop beside the parallel one.
        GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkClusterReplicate/hosts=10$|BenchmarkClusterReplicate/hosts=100$|BenchmarkClusterReplicate/hosts=1000$|BenchmarkClusterFixedHorizon/hosts=10$|BenchmarkClusterFixedHorizon/hosts=100$|BenchmarkClusterFixedHorizon/hosts=1000$' \
            -benchtime 50x -count=10 -benchmem ./internal/cluster | sed 's|^\(BenchmarkCluster[^ 	]*\)|\1/procs=1|'
        GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkClusterFixedHorizon/hosts=10000$' \
            -benchtime 5x -count=10 -benchmem ./internal/cluster | sed 's|^\(BenchmarkCluster[^ 	]*\)|\1/procs=1|'
        # Layer rows, one layer per package. They cost 10-600 ns per
        # iteration, so 50 iterations would measure the timer: each runs a
        # fixed count sized to take some milliseconds.
        go test -run '^$' -bench 'BenchmarkExponentialSample$' \
            -benchtime 1000000x -count=10 -benchmem ./internal/rng
        go test -run '^$' -bench 'BenchmarkHeapChurn$|BenchmarkChurnHeapKernel$|BenchmarkChurnInHandler$|BenchmarkCancel$|BenchmarkScheduleAndStep$' \
            -benchtime 200000x -count=10 -benchmem ./internal/des
        go test -run '^$' -bench 'BenchmarkRoundRobinSchedule$|BenchmarkStrictCoSchedule$|BenchmarkRelaxedCoSchedule$|BenchmarkBalanceSchedule$|BenchmarkCreditSchedule$' \
            -benchtime 200000x -count=10 -benchmem ./internal/sched
        go test -run '^$' -bench 'BenchmarkReplicationSetupPooled$' \
            -benchtime 100000x -count=10 -benchmem ./internal/core
        # A fresh build+compile costs tens of microseconds, not the pooled
        # path's hundreds of nanoseconds: a smaller count keeps each run at
        # some milliseconds.
        go test -run '^$' -bench 'BenchmarkReplicationSetupFresh$' \
            -benchtime 200x -count=10 -benchmem ./internal/core
        go test -run '^$' -bench 'BenchmarkTQuantile$' \
            -benchtime 1000000x -count=10 -benchmem ./internal/stats
        # End-to-end rows, 10-50 ms per iteration (EngineFast: about 1 ms).
        # The RunCells pool runs as wide as GOMAXPROCS: pinned to 2, and
        # again at 1 under a .../procs=1 name.
        go test -run '^$' -bench "$ROOT" \
            -benchtime 50x -count=10 -benchmem .
        GOMAXPROCS=2 go test -run '^$' -bench 'BenchmarkRunCells$' \
            -benchtime 50x -count=10 -benchmem .
        GOMAXPROCS=1 go test -run '^$' -bench 'BenchmarkRunCells$' \
            -benchtime 50x -count=10 -benchmem . | sed 's|^\(BenchmarkRunCells[^ 	]*\)|\1/procs=1|'
    } | go run ./cmd/benchjson -out "$out" -label "$label"
    ;;
compare)
    old="${2:?usage: ./bench.sh compare <old.json> <new.json> [tolerance]}"
    new="${3:?usage: ./bench.sh compare <old.json> <new.json> [tolerance]}"
    exec go run ./cmd/benchjson -compare "$old" "$new" -tolerance "${4:-0.15}"
    ;;
-setup)
    out="${2:-}"
    cmd="go test -run ^\$ -bench BenchmarkReplicationSetup -benchtime 1s -count=5 -benchmem ./internal/core"
    if [ -n "$out" ]; then
        mkdir -p "$(dirname "$out")"
        $cmd | tee "$out"
        echo "bench.sh: setup results written to $out" >&2
    else
        $cmd
    fi
    ;;
*)
    out="${1:-results/bench/$(git rev-parse --short HEAD 2>/dev/null || echo local).txt}"
    mkdir -p "$(dirname "$out")"
    go test -run '^$' -bench "$BENCH" -benchtime 2s -count=5 -benchmem $PKGS | tee "$out"
    echo "bench.sh: results written to $out" >&2
    ;;
esac
