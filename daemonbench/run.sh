#!/usr/bin/env bash
# Builds qb5000d and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash daemonbench/run.sh --workload hot-ingest --seed 1 --seconds 20 --trace 0
#   bash daemonbench/run.sh --pin      # re-render inputs, rewrite digests.json
#
# Builds, Go caches and scratch files stay inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/qb5000d" ./cmd/qb5000d
(cd daemonbench && go build -o "$build/daemonbench" .)
exec "$build/daemonbench" -daemon "$build/qb5000d" -dir daemonbench -out "$root/.bench_out" "$@"
