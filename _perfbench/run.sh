#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the given arguments, e.g.
#   bash _perfbench/run.sh --workload walk --seed 11 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache and the binary live
# in .bench_build, so nothing is written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
