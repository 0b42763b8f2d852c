#!/bin/sh
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   sh bench/run.sh --workload gen-control --seed 1 --seconds 10 --trace 0
#   sh bench/run.sh compare a.jsonl -- b.jsonl
#
# The build cache, the Go tool's own state and the binary stay under
# .bench_build/ in the checkout, and module downloads are off: the program
# needs nothing outside the repository. Outside a full checkout (no go.mod
# one level up) the build fails and the script exits non-zero.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= CGO_ENABLED=0
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
