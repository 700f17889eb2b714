#!/usr/bin/env bash
# The benchmark's one command, as BENCHMARK.json names it:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds teleios-bench into .bench_build/ at the repository root (the
# server is built from there too) and runs it. The Go build and module
# caches are kept inside .bench_build/ as well, so nothing outside the
# checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/teleios-bench" ./cmd/teleios-bench)
exec "$build/teleios-bench" -root "$root" "$@"
