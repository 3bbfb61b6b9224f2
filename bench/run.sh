#!/usr/bin/env bash
# Builds and runs the benchmark with every Go build artefact kept inside the
# checkout (.bench_build/), so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
