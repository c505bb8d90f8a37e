#!/usr/bin/env bash
# Builds the benchmark and efmd from this checkout into .bench_build,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/efmd" elmocomp/cmd/efmd
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
