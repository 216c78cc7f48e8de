#!/usr/bin/env bash
# Builds the benchmark and distmatchd from the checkout's sources, then
# runs one workload:
#
#   bash perfbench/run.sh --workload churn|bulk|solve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or caches goes
# under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/distmatchd" distmatch/cmd/distmatchd
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin/distmatchd" -tracedir "$out/traces" "$@"
