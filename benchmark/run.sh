#!/bin/sh
# Builds the benchmark from source and runs it from the checkout root.
# Everything it writes (Go build cache, binaries, scratch) stays inside
# the checkout under .bench_build/.
set -e
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="${GOCACHE:-$PWD/.bench_build/gocache}"
go build -C benchmark -o ../.bench_build/legion-e2e .
exec .bench_build/legion-e2e "$@"
