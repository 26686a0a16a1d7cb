#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoked from the root of a
# checkout as BENCHMARK.json's command; every argument goes to the binary.
# The build cache and the binary live in .bench_build/ inside the checkout,
# so nothing outside it is written. Building again with a warm cache is a
# staleness check of well under a second.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/vadabench" . >&2
exec "$root/.bench_build/vadabench" "$@"
