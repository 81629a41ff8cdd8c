#!/usr/bin/env bash
# Builds dagbench from source and runs it with the caller's arguments.
# Run from the repository root (BENCHMARK.json's command does). Everything
# the build and the run write — Go's build cache and temp files included —
# stays under .bench_build/ and bench/out/ in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/dagbench" ./cmd/dagbench)
exec "$build/dagbench" -out bench/out -repo . "$@"
