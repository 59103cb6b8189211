#!/usr/bin/env bash
# Builds hoopperf from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash hoopperf/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, temporary files, the binary) and the
# traced run's spans stay under .bench_build in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/harness || ! -f hoopperf/main.go ]]; then
	echo "hoopperf: run from the repository root (go.mod, internal/ and hoopperf/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/hoopperf" ./hoopperf
exec "$out/hoopperf" "$@"
