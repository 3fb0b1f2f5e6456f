#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the build's scratch directory and the go command's
# configuration directory (its telemetry counters) live in .bench_build/
# too, so the run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
(
	cd perfbench
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
