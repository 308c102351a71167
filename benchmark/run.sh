#!/bin/sh
# Entry point for BENCHMARK.json's command: builds the benchmark inside the
# checkout (Go build cache included, so nothing outside it is written), then
# runs it from the benchmark directory with the arguments given.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
