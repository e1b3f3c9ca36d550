#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout; everything the Go toolchain writes (build cache, module
# cache, telemetry) and the binary stay under .bench_build/ in that checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/bench ]; then
	echo "benchmarks/run.sh: run from the root of a checkout of the repo (no go.mod / internal/bench here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
go build -o "$out/benchmarks" ./benchmarks
exec "$out/benchmarks" "$@"
