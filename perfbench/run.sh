#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload train-email --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, journals
# and temporary files all stay under .bench_build/ in the current
# directory. It fails without printing a result when the program's
# sources are not beside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
