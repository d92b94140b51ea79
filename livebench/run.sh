#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash livebench/run.sh --workload tiny-flat --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the build's temporary files stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd livebench && go build -buildvcs=false -o "$out/livebench" .)
exec "$out/livebench" "$@"
