#!/usr/bin/env bash
# Builds galoisbench from source and runs it with the given arguments.
#
# Everything the build writes stays inside the checkout, under .bench_build/
# at its root: the binary, the go build cache, and an (empty) module cache.
# The benchmark is a module of its own (benchmark/go.mod) that takes the
# program under test from the enclosing repository through a replace
# directive, so in a directory that holds the benchmark alone the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/galoisbench" .)

# Run from the repository root, so benchmark/out is where results land.
cd "$root"
exec "$build/galoisbench" "$@"
