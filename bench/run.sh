#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the caller's arguments.
#
# Everything the build and the run write stays under the checkout: the Go
# build cache, the binary and the benchmark's data directories (TMPDIR) live
# in .bench_build/, span files and budget tables in bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"

# bench/ is a module of its own (bench/go.mod) that replaces the root module
# with "../": in a directory without the repository around it this build
# fails, and so does the run.
go build -C "$here" -o "$build/gtmbench" .

cd "$root"
exec "$build/gtmbench" -outdir "$here/out" "$@"
