#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the root of a checkout:
#
#   bash cmd/qolsr-bench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness from source into .bench_build (first call only does
# real work; the Go build cache and GOPATH live there too, so nothing is written
# outside the checkout) and hands the flags to `qolsr-bench bench`, whose
# last line of stdout is the result object.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -C "$root/cmd/qolsr-bench" -o "$build/qolsr-bench" .
exec "$build/qolsr-bench" bench "$@"
