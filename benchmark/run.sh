#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes —
# build cache, binary, data directories — stays inside the checkout:
# .bench_build/ for build and data, benchmark/out/ for span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
