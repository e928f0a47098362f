#!/usr/bin/env bash
# Builds cmd/elsid and the benchmark from this checkout, then runs the
# benchmark with the given arguments, for example
#
#   bash perfbench/run.sh --workload uniform-mixed --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare parent-logs change-logs
#
# Everything the build and the runs leave behind goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/perfbench/tmp"
out="$(cd "$out" && pwd)/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/elsid" ./cmd/elsid
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -elsid "$out/bin/elsid" -out "$out" "$@"
