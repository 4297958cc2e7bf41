#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from, then runs it with the arguments given. Everything the
# build and the run write — the Go build cache included — stays inside
# that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -scratch "$build/scratch" "$@"
