#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, scratch stores, and the
# span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

scratch=$(mktemp -d "$build/tmp/run.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
"$build/perfbench" -dir "$scratch" -trace-out "$build/trace" "$@"
