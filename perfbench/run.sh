#!/bin/sh
# Builds the perfbench program from the checkout's sources and runs it.
# Usage, from the root of a checkout:
#
#	sh perfbench/run.sh --workload serve-write --seed 1 --seconds 25 --trace 0
#
# Every build, cache and state file stays under .bench_build in the
# checkout. The program needs the module around it; in a directory that
# holds only the benchmark the build fails and the script exits non-zero.
set -eu
out="${PWD}/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --root . --out "$out/perfbench" "$@"
