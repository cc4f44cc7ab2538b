#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
# build bench/ from source into .bench_build/ and become the benchmark, so
# there is exactly one process and it is the one the driver started.
#
# Everything the toolchain and the benchmark write stays inside the checkout:
# the Go build cache, the module cache, compiler scratch files and the
# benchmark's own temp dirs (journal data dirs, crash images) all live under
# .bench_build/. In a directory that holds only BENCHMARK.json and bench/
# there is no go.mod, the build fails, and this script exits non-zero
# without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/botbench" ./bench
exec "$build/botbench" "$@"
