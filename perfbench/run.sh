#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Every build product and result stays under .bench_build/ at
# the checkout root.
#
#   bash perfbench/run.sh --workload navigate --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOTELEMETRY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-results" "$@"
