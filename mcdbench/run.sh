#!/usr/bin/env bash
# Builds mcdbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash mcdbench/run.sh --workload core --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory, the Go build cache included.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C mcdbench build -o "$out/mcdbench-bin" .
exec "$out/mcdbench-bin" "$@"
