#!/bin/sh
# Entry point named by BENCHMARK.json, run from the root of a checkout.
# Keeps every build product inside the checkout (.bench_build/), builds the
# benchmark from source and hands all arguments to it.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" -root "$PWD" "$@"
