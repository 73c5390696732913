#!/usr/bin/env bash
# Entry point for the benchmark driver (the "command" of BENCHMARK.json):
# builds the benchmark from source into .bench_build/ and runs it with the
# driver's arguments. Everything the go tool writes — build cache, temporary
# files — stays inside the checkout. By hand, `go run ./benchmark` does the
# same without the confinement.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/gowarp-benchmark" ./benchmark
exec "$build/gowarp-benchmark" "$@"
