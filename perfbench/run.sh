#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload zoo_full --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# trace files) goes under .bench_build at the checkout root. Build output
# goes to stderr, so standard output carries only the benchmark's report.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOENV=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
