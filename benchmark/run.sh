#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash benchmark/run.sh --workload paper-san --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's telemetry counters and
# temporary files all stay inside the checkout, under $CARGO_TARGET_DIR
# (default .bench_build, relative to the current directory). Without the
# simulator's sources next to benchmark/ the build fails and the script
# exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOENV=off

go -C "$here" build -o "$out/vcpubench" .
exec "$out/vcpubench" "$@"
