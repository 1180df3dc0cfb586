#!/usr/bin/env bash
# Builds the stanoise benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload design-pessimistic --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, and it never reaches the network.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0
go -C "$root/benchmark" build -o "$out/stanoise-bench" .
exec "$out/stanoise-bench" "$@"
