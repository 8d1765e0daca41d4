#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload fig2-clique16 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced run's JSON record go to the
# build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
