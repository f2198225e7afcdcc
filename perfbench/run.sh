#!/usr/bin/env bash
# Builds the VPP-loop benchmark from the checkout it sits in and runs it.
# Every argument is passed through, e.g.
#   bash perfbench/run.sh --workload notransit-local --seed 1 --seconds 20 --trace 0
# The build cache, GOPATH and binary live under .bench_build at the
# checkout root, so nothing outside the checkout is written.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off GOWORK=off \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
