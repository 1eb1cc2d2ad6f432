#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, as:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and traced-run spans.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
