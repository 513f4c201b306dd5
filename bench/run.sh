#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload compute --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, module
# and telemetry state) stays in .bench_build/ at the root, so a run reads
# and writes nothing outside the checkout. Outside a full checkout (no
# simulator source next to bench/) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/overshadow-bench" .
) >&2
exec "$out/overshadow-bench" "$@"
