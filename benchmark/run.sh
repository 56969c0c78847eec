#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root: bash benchmark/run.sh --workload rt-write-4k ...
# The binary and go's build cache both live in .bench_build/ under the
# current directory, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
