#!/usr/bin/env bash
# Builds nocbench from this checkout's sources into .bench_build and runs
# it with the given arguments, e.g.
#
#   bash nocbench/run.sh --workload uniform-32x32 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build at the checkout root. Build output goes to stderr so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/nocbench" && go build -o "$out/nocbench" .) >&2
exec "$out/nocbench" "$@"
