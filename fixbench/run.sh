#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root:
#
#   bash fixbench/run.sh --workload live-paper --seed 1 --seconds 20 --trace 0
#
# Every invocation rebuilds, so the binary always matches the source in
# the checkout; with the Go build cache kept under the build directory,
# an unchanged tree rebuilds in about a second. Everything it writes
# stays under .bench_build (or $CARGO_TARGET_DIR): the binary, the Go
# build cache, per-run state and span files.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
bin="$out/fixbench"
(cd "$root/fixbench" && go build -o "$bin.tmp.$$" .)
mv "$bin.tmp.$$" "$bin"
exec "$bin" "$@"
