#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing the benchmark's flags through:
#
#   bash perfbench/run.sh --workload bulk-tcp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# dumps) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
