#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig7-quick --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every build output, the Go build cache and
# the temporary store directories stay under $CARGO_TARGET_DIR (default
# .bench_build). The build fails, and the script exits non-zero, when the
# repository's own sources are not beside perfbench/.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/gotmp" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .) >&2

export TMPDIR="$build/tmp"
exec "$build/perfbench" "$@"
