#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory (Go build cache, temp dirs, records and spans).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
