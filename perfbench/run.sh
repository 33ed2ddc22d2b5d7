#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run from
# and runs it; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload skew-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything it builds and writes
# (Go build cache, binary, data directories, span files) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout; the
# toolchain is kept offline and local.
set -eu
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
