#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it with the arguments given. The Go build cache is kept there too, so that
# building and running write nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bench" .
cd "$root"
exec "$root/.bench_build/bench" "$@"
