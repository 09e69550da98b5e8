#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build (or
# $CARGO_TARGET_DIR when set), including the Go build cache, so the
# first run compiles the repository and later runs reuse it. Outside a
# full checkout (no go.mod beside perfbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --tmp "$build/tmp" "$@"
