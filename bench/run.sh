#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the driver's entry point
# (BENCHMARK.json "command"). Everything the build and the run write — Go's
# build cache, the binaries, scratch files — stays under .bench_build/ in the
# checkout; traces go to bench/out/.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$repo/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$repo/bench" && go build -o "$build/bin/bench" .) >&2
exec "$build/bin/bench" -repo "$repo" -build "$build" "$@"
