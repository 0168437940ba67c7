#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#   bash perfbench/run.sh --workload wiki-online --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/path"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
