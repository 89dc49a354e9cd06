#!/usr/bin/env bash
# Builds the benchmark once and runs it; every argument goes to the
# binary (see `benchmark/run.sh -list` and benchmark/README.md).
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binary and the replicas' data directories under
# .bench_build/, results and span files under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$here/out"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
# The load generator and all replicas share one process; it gets every
# core the host has and no more.
export GOMAXPROCS="$(nproc)"

(cd "$here" && go build -o "$build/benchmark" .)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/benchmark" -scratch "$build" -out "$here/out" -commit "$commit" "$@"
