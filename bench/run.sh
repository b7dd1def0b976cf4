#!/usr/bin/env bash
# Builds the benchmark from source with the committed PGO profile (the one
# every tltsim build uses) and runs it with the given flags. Everything the
# build and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -pgo=cmd/tltsim/default.pgo -o "$build/tltbench" ./bench >&2
exec "$build/tltbench" -out "$build/last" "$@"
