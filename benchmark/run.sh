#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# so nothing is read or written elsewhere) and runs it from the checkout
# root. Every argument is passed through:
#   bash benchmark/run.sh --workload flood-2k --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/locaware-bench" . >&2
exec "$build/locaware-bench" "$@"
