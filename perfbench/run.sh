#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload ycsb-c-p2 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seconds 10
#
# Run from the repository root. Build outputs (Go build cache, temp files,
# the binary) go under $CARGO_TARGET_DIR, default .bench_build, so nothing
# is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

# The go command keeps caches, temp files and telemetry counters under
# these; point them all into the build directory.
(
	cd perfbench
	export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config GOPATH=$build/home/go
	export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp TMPDIR=$build/gotmp
	export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" -out "$build" "$@"
