#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash _perfbench/run.sh --workload whatif-idle --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
