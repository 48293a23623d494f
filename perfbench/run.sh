#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Everything the build and the run write goes
# under the build directory ($CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config GOTELEMETRY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
