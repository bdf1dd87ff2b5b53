#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it. Everything the Go toolchain writes (build cache, temporary files,
# binaries) is kept inside the checkout under .bench_build/, so a run reads
# and writes nothing outside it. Arguments are passed through to the
# benchmark (see bench/README.md).
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
