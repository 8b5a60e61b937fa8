#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload on one core. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary and the run's disk stores.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# Build offline with the local toolchain, caching inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
bin="$build/perfbench.$$"
(cd "$bench" && go build -o "$bin" .)

work="$build/work.$$"
status=0
GOMAXPROCS=1 "$bin" --workdir "$work" "$@" || status=$?
rm -rf "$work" "$bin"
exit "$status"
