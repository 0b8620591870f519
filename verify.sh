#!/bin/sh
# verify.sh — the repo's full verification chain: formatting, go vet, the
# project's own static verifiers (model + determinism lint), and the test
# suite with the race detector on the internal packages.
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# benchmark/ is a nested module: the root go build/vet never compiles it,
# so a change to an internal API it uses would otherwise surface only in
# the nightly benchmark.
echo "== go vet ./... in benchmark/ (nested module)"
(cd benchmark && go vet ./...)

# Its tests pin every workload's digest (expected/digests.json), so a
# change that moves a workload's numbers fails here, not only when the
# benchmark runs.
echo "== go test ./... in benchmark/ (nested module)"
(cd benchmark && go test ./...)

# vcpusim vet prints a full model report; show it only when vet fails.
vet() {
    report=$(go run ./cmd/vcpusim vet "$@") || { echo "$report"; return 1; }
}

echo "== determinism gate + model verification: vcpusim vet (fig8, fig8 + pcpu_crash, built-in suite)"
vet -config cmd/vcpusim/testdata/fig8.json
vet -nosource -config cmd/vcpusim/testdata/fig8_crash.json
vet

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/..."
go test -race ./internal/...

# -count=1: the test cache does not key on GOMAXPROCS, so without it this
# step would replay the GOMAXPROCS-default result of the step above.
echo "== go test -race ./internal/cluster at GOMAXPROCS 4 (parallel window stepping, uncached)"
GOMAXPROCS=4 go test -race -count=1 ./internal/cluster

echo "== pooled-determinism gate (goldens + pooled/fresh equivalence + cross-engine timelines, uncached)"
go test -run 'Golden|PooledEquivalence|TracksMatchAcrossEngines' -count=1 ./internal/core ./internal/san \
    ./internal/experiments ./internal/cluster ./internal/obs/timeline ./cmd/vcpusim

echo "== observability gate (manifest write + schema/counter validation)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/vcpusim experiments -figure 8 -quick -manifest "$obsdir" >/dev/null
go run ./cmd/vcpusim manifest -check "$obsdir/manifest.json"

echo "== deep-inspection gate (trace byte determinism + probe series hashes)"
go run ./cmd/vcpusim trace -config cmd/vcpusim/testdata/fig8.json -horizon 400 \
    -out "$obsdir/trace.json" -probe "$obsdir/series.csv" >/dev/null
go run ./cmd/vcpusim trace -config cmd/vcpusim/testdata/fig8.json -horizon 400 \
    -out "$obsdir/trace2.json" -probe "$obsdir/series2.csv" >/dev/null
cmp "$obsdir/trace.json" "$obsdir/trace2.json"
cmp "$obsdir/series.csv" "$obsdir/series2.csv"
probedir=$(mktemp -d)
go run ./cmd/vcpusim experiments -figure 8 -quick -engine san -hist \
    -probe "$probedir/series" -manifest "$probedir" >/dev/null
go run ./cmd/vcpusim manifest -check "$probedir/manifest.json"
rm -rf "$probedir"

echo "== figure reproducibility gate (experiments -figure all at GOMAXPROCS 1 and 4 vs results/)"
figdir=$(mktemp -d)
go build -o "$figdir/vcpusim" ./cmd/vcpusim
for procs in 1 4; do
    GOMAXPROCS=$procs "$figdir/vcpusim" experiments -figure all -csv "$figdir/$procs" >/dev/null
    for f in "$figdir/$procs"/*.csv; do
        cmp "$f" "results/$(basename "$f")"
    done
done
rm -rf "$figdir"

echo "== bench smoke (./bench.sh smoke)"
./bench.sh smoke

echo "verify.sh: all checks passed"
