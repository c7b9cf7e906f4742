#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload; every argument is passed through, for example
#
#   bash benchmark/run.sh --workload train-stream --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary, the
# run's scratch files and traces all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
go build -C "$root/benchmark" -o "$out/ppdm-benchmark" .
exec "$out/ppdm-benchmark" "$@"
