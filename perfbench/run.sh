#!/usr/bin/env bash
# Builds precision-table and perfbench from this checkout, then runs
# perfbench with the arguments given:
#
#   bash perfbench/run.sh --workload table1-tail --seed 1 --seconds 10 --trace 0
#
# Every build artifact and temporary file stays under .bench_build/ in the
# checkout, so the go build cache never leaves it either.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
cd "$root"
go build -o "$build/bin/precision-table" ./cmd/precision-table
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin/precision-table" -dir "$build/run" "$@"
