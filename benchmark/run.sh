#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload read-hot --seed 7 --seconds 20 --trace 0
#
# Everything the go tool writes (build cache, temporary files, the binary)
# goes under .bench_build in the current directory, so a run reads and
# writes only inside its checkout. The first run there compiles the standard
# library too and takes about a minute; later runs reuse the cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
