#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. Run from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash e2ebench/run.sh --workload figures|mayad --seed N --seconds S --trace 0|1
#   bash e2ebench/run.sh --list
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# working tree, so nothing outside it is written.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
