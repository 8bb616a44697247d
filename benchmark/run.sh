#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root, passing
# every argument through:
#
#   bash benchmark/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache stay under .bench_build in the
# repository (or $CARGO_TARGET_DIR when set), so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gotmp"
# The go command's cache, temporary files, module path and telemetry
# counters (kept under the user config directory) all stay in $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
export BENCH_BUILD_DIR="$out"
go -C benchmark build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
