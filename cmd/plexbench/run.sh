#!/bin/bash
# BENCHMARK.json's command: runs plexbench from the root of a checkout
# with the Go build cache and temporary files kept inside it, under
# .bench_build (which .gitignore names), so a run reads and writes
# nothing outside the checkout. The first run in a checkout therefore
# compiles the standard library too. Arguments go to plexbench as given.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/gotmp"
exec go run ./cmd/plexbench "$@"
