#!/usr/bin/env bash
# Builds the mcperf benchmark from the sources of this checkout and runs it
# with the given arguments, from the root of the checkout:
#
#   bash mcperf/run.sh --workload cold-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, reports and determinism records.
# The toolchain must already be installed; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

go -C "$root/mcperf" build -trimpath -o "$build/bin/mcperf" .
exec "$build/bin/mcperf" "$@"
