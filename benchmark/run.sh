#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload live-paced --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) goes under
# .bench_build/ in the checkout; nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/streamdex-benchmark" .) >&2
exec "$build/streamdex-benchmark" "$@"
